"""Output checks: every operation's exit code and output against a reference.

Each reference records its source:

* ``seed-commit``: stdout of the seed commit, stored in refs.json (trace-wide
  words and ``verify --n 5``, where no second evaluation path is affordable);
* ``state-sum``: the brute-force state sum of the braid closure, either
  stored in refs.json (every 3-strand word of up to 6 letters) or computed
  here (seeded braids of at most 4 strands and 8 letters);
* ``trace``: the Markov-trace bracket of the braid a PD diagram was built
  from, times the curl factors, with A -> A^-1 for a mirror image;
* ``tree-product``: squared moduli of the 2x2 unitary image of a qsim word,
  which this module multiplies out pairwise, independently of braidket.

bracket/jones/verify stdout must match byte for byte; qsim output is checked
for meaning, not bytes.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

#: qsim estimates must lie within this many binomial standard errors (plus
#: one count) of the exact squared modulus.  At 4 standard errors one
#: estimate in 16,000 of a correct sampler falls outside; a run checks tens
#: to hundreds of estimates and the benchmark makes hundreds of runs, so 4
#: would report failures that are not there.  At 6 the rate is 2e-9.
QSIM_Z = 6.0
QSIM_EXACT_TOL = 1e-9
TRACE5_TOL = 1e-9


def parse_poly(text: str) -> dict[int, int]:
    """Invert braidket's text form of a real Laurent polynomial in A."""
    if text == "0":
        return {}
    terms: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("-")
        if "A^" in body:
            coeff, _, exp = body.partition("A^")
            terms[int(exp)] = sign * (int(coeff.rstrip("*")) if coeff else 1)
        else:
            terms[0] = sign * int(body)
    return terms


def _qsim_factors(theta: float) -> np.ndarray:
    """rho(sigma_1), rho(sigma_1^-1), rho(sigma_2), rho(sigma_2^-1) at theta."""
    a = cmath.exp(1j * theta)
    delta = -2.0 * math.cos(2.0 * theta)
    off = math.sqrt(max(0.0, 1.0 - 1.0 / delta**2))
    u1 = np.array([[delta, 0.0], [0.0, 0.0]])
    u2 = np.array([[1.0 / delta, off], [off, delta - 1.0 / delta]])
    eye = np.eye(2)
    return np.array([a * eye + u1 / a, eye / a + a * u1, a * eye + u2 / a, eye / a + a * u2])


def tree_product(word: str, theta: float) -> np.ndarray:
    """Product of the 2x2 letter factors by pairwise reduction, whose rounding
    error grows with log(length) rather than with length."""
    letters = np.array(word.split(), dtype=np.int64)
    index = 2 * (np.abs(letters) - 1) + (letters < 0)
    product = _qsim_factors(theta)[index]
    if len(product) == 0:
        return np.eye(2, dtype=complex)
    while len(product) > 1:
        if len(product) % 2:
            product = np.concatenate([product, np.eye(2, dtype=complex)[None]])
        product = product[0::2] @ product[1::2]
    return product[0]


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


class Checker:
    def __init__(self, refs: dict):
        from braidket.braid import bracket_via_trace, closure_to_diagram, exponent_sum, parse_braid
        from braidket.diagram import bracket_state_sum, writhe_factor
        from braidket.laurent import DELTA, LaurentPoly, to_jones_variable

        self.refs = refs
        self._parse_braid = parse_braid
        self._bracket_via_trace = bracket_via_trace
        self._closure = closure_to_diagram
        self._exponent_sum = exponent_sum
        self._state_sum = bracket_state_sum
        self._writhe_factor = writhe_factor
        self._delta = DELTA
        self._monomial = LaurentPoly.monomial
        self._jones = to_jones_variable
        words3 = refs["words3"]
        self._words3 = [words3["polys"][i] for i in words3["index"]]
        self._words3_poly = [parse_poly(text) for text in words3["polys"]]

    def check(self, op: dict, rec: dict) -> tuple[str, str | None]:
        """Return (reference source, None if correct else the reason)."""
        ref = op["check"]["ref"]
        if ref == "qsim":
            return "tree-product", self._qsim(op, rec)
        if rec["rc"] != 0:
            return self._source(ref), f"exit {rec['rc']}: {rec['err'].strip()[-300:]}"
        if ref == "trace-wide":
            expected = self.refs["trace-wide"]["entries"][op["check"]["key"]]["stdout"]
        elif ref == "verify-5":
            expected = self.refs["verify-5"]["stdout"]
        elif ref == "words3" and op["kind"] == "trace5":
            return "state-sum", self._trace5(op, rec)
        elif ref == "words3":
            expected = self._words3[op["check"]["index"]] + "\n"
        elif ref == "pd-trace":
            expected = self._pd_expected(op["check"])
        elif op["kind"] == "z_amplitude":
            z = self._delta * self._state_sum_bracket(op["check"])
            expected = json.dumps(z.to_json())
        else:
            expected = f"{self._state_sum_bracket(op['check'])}\n"
        if rec["out"] != expected:
            return self._source(ref), f"stdout {rec['out'][:200]!r} != reference {expected[:200]!r}"
        return self._source(ref), None

    def _source(self, ref: str) -> str:
        return {
            "trace-wide": "seed-commit",
            "verify-5": "seed-commit",
            "words3": "state-sum",
            "state-sum": "state-sum",
            "pd-trace": "trace",
        }[ref]

    def _state_sum_bracket(self, check: dict):
        word = self._parse_braid(check["word"], check["strands"])
        return self._state_sum(self._closure(word))

    def _pd_expected(self, check: dict) -> str:
        word = self._parse_braid(check["word"], check["strands"])
        bracket = self._bracket_via_trace(word)
        writhe = self._exponent_sum(word)
        for sign in check["curls"]:
            bracket = bracket * self._monomial(3 * sign, -1)
            writhe += sign
        if check["mirror"]:
            bracket, writhe = bracket.invert_variable(), -writhe
        f = self._writhe_factor(writhe) * bracket
        return f"bracket: {bracket}\nwrithe: {writhe}\nf: {f}\nV: {self._jones(f)}\n"

    def _trace5(self, op: dict, rec: dict) -> str | None:
        values = iter(json.loads(rec["out"]))
        for index in op["check"]["indices"]:
            poly = self._words3_poly[self.refs["words3"]["index"][index]]
            for theta in op["thetas"]:
                a = cmath.exp(1j * theta)
                exact = sum(c * a**e for e, c in poly.items())
                re, im = next(values)
                if abs(complex(re, im) - exact) >= TRACE5_TOL:
                    return f"word {index} at theta {theta}: {complex(re, im)} != {exact}"
        return None

    def _qsim(self, op: dict, rec: dict) -> str | None:
        if rec["rc"] != 0:
            return f"exit {rec['rc']}: {rec['err'].strip()[-300:]}"
        argv = op["argv"]
        word, theta = _arg(argv, "--word"), float(_arg(argv, "--theta"))
        shots, prepare = int(_arg(argv, "--shots")), int(_arg(argv, "--prepare"))
        report = json.loads(rec["out"])
        if report["shots"] != shots or report["prepare"] != prepare or report["word"] != word:
            return "report does not echo its input"
        if sum(report["counts"]) != shots:
            return f"counts {report['counts']} do not sum to {shots} shots"
        moduli = np.abs(tree_product(word, theta)) ** 2
        exact = np.array(report["exact"])
        gap = float(np.max(np.abs(exact - moduli)))
        if gap > QSIM_EXACT_TOL:
            return f"exact moduli differ from the tree product by {gap:.3e}"
        sampled = np.array(report["estimates"])
        counts = np.array(report["counts"]) / shots
        for name, got, want in (
            ("estimates", sampled, moduli),
            ("counts", counts, moduli[:, prepare]),
        ):
            p = np.clip(want, 0.0, 1.0)
            limit = QSIM_Z * np.sqrt(p * (1.0 - p) / shots) + 1.0 / shots
            if np.any(np.abs(got - want) > limit):
                return f"{name} {got.tolist()} outside {QSIM_Z} standard errors of {want.tolist()}"
        return None
