"""Relation suites: the algebraic identities every representation must satisfy.

These back the ``verify`` CLI command and the acceptance tests.  Each suite
checks a family of exact (or, for the numeric representation, 1e-12) identities
and reports a single pass/fail with a short detail string on failure.
"""

from __future__ import annotations

import math
import random

import numpy as np

from ._record import Record, set_field
from .braid import BraidWord, bracket_via_trace, closure_bracket, closure_to_diagram, rho_tl
from .diagram import bracket_by_contraction, bracket_state_sum
from .errors import SizeLimitError
from .laurent import DELTA
from .matrixrep import (
    SymbolicMatrix,
    burau_generator,
    burau_rho,
    elementary_tensors,
    rho_matrix,
    tl_tensor_image,
    u_tensor,
    z_amplitude,
)
from .tl import TLElement, generator_diagram
from .unitary3 import rho_unitary, unitary_generators

__all__ = ["SuiteResult", "run_all", "MAX_VERIFY_STRANDS"]

MAX_VERIFY_STRANDS = 5
MAX_TENSOR_SUITE_STRANDS = 4

_TOL = 1e-12  # tolerance of the numeric suites
_THETAS = [0.0, math.pi / 10, -math.pi / 10, math.pi / 8, -math.pi / 8, math.pi / 6]


class SuiteResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)


def _tl_gen(n: int, i: int) -> TLElement:
    return TLElement.from_diagram(generator_diagram(n, i))


def suite_tl_relations(n: int, which: str = "tl") -> SuiteResult:
    """U_i^2 = delta U_i and U_i U_{i+-1} U_i = U_i under one representation.

    For |i-j| > 1 the generators commute, except in the projector form,
    where U_i U_j = 0.
    """
    name = "tl-relations" if which == "tl" else f"tl-relations-{which}"
    gen = {"tl": _tl_gen, "tensor": u_tensor, "projector": burau_generator}[which]
    top = n if which != "tensor" else min(n, MAX_TENSOR_SUITE_STRANDS)
    for m in range(2, top + 1):
        u = {i: gen(m, i) for i in range(1, m)}
        for i in range(1, m):
            if u[i] * u[i] != u[i].scale(DELTA):
                return SuiteResult(name, False, f"U_{i}^2 != delta U_{i} in n={m}")
            for j in range(1, m):
                if abs(i - j) == 1 and u[i] * u[j] * u[i] != u[i]:
                    return SuiteResult(name, False, f"U_{i}U_{j}U_{i} != U_{i} in n={m}")
                if abs(i - j) > 1:
                    if which == "projector":
                        want, text = SymbolicMatrix.zeros(m), "0"
                    else:
                        want, text = u[j] * u[i], f"U_{j}U_{i}"
                    if u[i] * u[j] != want:
                        return SuiteResult(name, False, f"U_{i}U_{j} != {text} in n={m}")
    return SuiteResult(name, True)


def _braid_relation_words(n: int):
    for i in range(1, n - 1):
        yield (
            BraidWord(n, (i, i + 1, i)),
            BraidWord(n, (i + 1, i, i + 1)),
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            yield BraidWord(n, (i, j)), BraidWord(n, (j, i))
    for i in range(1, n):
        yield BraidWord(n, (i, -i)), BraidWord(n, ())


def suite_braid_relations(n: int, which: str) -> SuiteResult:
    """Braid relations under one symbolic representation."""
    name = f"braid-relations-{which}"
    rep = {"tl": rho_tl, "tensor": rho_matrix, "projector": burau_rho}[which]
    top = n if which != "tensor" else min(n, MAX_TENSOR_SUITE_STRANDS)
    for m in range(2, top + 1):
        for left, right in _braid_relation_words(m):
            if rep(left) != rep(right):
                return SuiteResult(name, False, f"{left} != {right} in B_{m}")
    return SuiteResult(name, True)


def suite_braid_relations_unitary() -> SuiteResult:
    """Numeric braid relations and unitarity for the 2x2 representation."""
    rng = random.Random(7)
    for theta in _THETAS:
        setup = unitary_generators(theta)
        lhs = rho_unitary(BraidWord(3, (1, 2, 1)), setup)
        rhs = rho_unitary(BraidWord(3, (2, 1, 2)), setup)
        if np.max(np.abs(lhs - rhs)) > _TOL:
            return SuiteResult("braid-relations-unitary", False, f"theta={theta}")
        for _ in range(5):
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(12))
            rho = rho_unitary(BraidWord(3, letters), setup)
            if np.max(np.abs(rho @ rho.conj().T - np.eye(2))) > _TOL:
                return SuiteResult(
                    "braid-relations-unitary", False, f"not unitary at theta={theta}"
                )
    return SuiteResult("braid-relations-unitary", True)


def suite_yang_baxter() -> SuiteResult:
    """R1 R2 R1 = R2 R1 R2 on (C^2)^3, and R as built is inverse to rho(sigma)."""
    lhs = rho_matrix(BraidWord(3, (1, 2, 1)))
    rhs = rho_matrix(BraidWord(3, (2, 1, 2)))
    if lhs != rhs:
        return SuiteResult("yang-baxter", False, "R1R2R1 != R2R1R2")
    _, _, r = elementary_tensors()
    if r * rho_matrix(BraidWord(2, (1,))) != SymbolicMatrix.identity(4):
        return SuiteResult("yang-baxter", False, "R is not inverse to rho(sigma)")
    return SuiteResult("yang-baxter", True)


def suite_trace_identities() -> SuiteResult:
    """trace(U_1) = trace(U_2) = delta and trace(U_1 U_2) = 1 numerically."""
    for theta in _THETAS:
        setup = unitary_generators(theta)
        checks = [
            (np.trace(setup.u1), setup.delta),
            (np.trace(setup.u2), setup.delta),
            (np.trace(setup.u1 @ setup.u2), 1.0),
            (np.trace(setup.u2 @ setup.u1), 1.0),
        ]
        for got, want in checks:
            if abs(got - want) > _TOL:
                return SuiteResult(
                    "trace-identities", False, f"theta={theta}: {got} != {want}"
                )
    return SuiteResult("trace-identities", True)


def random_braid(rng: random.Random, max_strands: int, max_length: int) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_length)
    letters = tuple(
        rng.choice([s * i for i in range(1, n) for s in (1, -1)]) for _ in range(length)
    )
    return BraidWord(n, letters)


def suite_cross_representation(n: int) -> SuiteResult:
    """State sum, contraction, router, Markov and tensor traces agree on 20 random closures."""
    rng = random.Random(11)
    for _ in range(20):
        word = random_braid(rng, max_strands=min(n, 4), max_length=6)
        via_trace = bracket_via_trace(word)
        if closure_bracket(word)[0] != via_trace:
            return SuiteResult("cross-representation", False, f"closure bracket mismatch: {word}")
        diagram = closure_to_diagram(word)
        if via_trace != bracket_state_sum(diagram):
            return SuiteResult("cross-representation", False, f"state sum mismatch: {word}")
        if via_trace != bracket_by_contraction(diagram):
            return SuiteResult("cross-representation", False, f"contraction mismatch: {word}")
        if z_amplitude(word) != DELTA * via_trace:
            return SuiteResult("cross-representation", False, f"tensor trace mismatch: {word}")
        if tl_tensor_image(rho_tl(word)) != rho_matrix(word):
            return SuiteResult("cross-representation", False, f"tensor image mismatch: {word}")
    return SuiteResult("cross-representation", True)


def run_all(n: int) -> list[SuiteResult]:
    """Run every suite at strand bound n (2 <= n <= 5)."""
    if n > MAX_VERIFY_STRANDS:
        raise SizeLimitError(f"verification guarded to n <= {MAX_VERIFY_STRANDS}, got {n}")
    if n < 2:
        raise ValueError("verification needs at least 2 strands")
    return [
        suite_tl_relations(n, "tl"),
        suite_tl_relations(n, "tensor"),
        suite_tl_relations(n, "projector"),
        suite_braid_relations(n, "tl"),
        suite_braid_relations(n, "tensor"),
        suite_braid_relations(n, "projector"),
        suite_braid_relations_unitary(),
        suite_yang_baxter(),
        suite_trace_identities(),
        suite_cross_representation(n),
    ]
