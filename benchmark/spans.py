"""Timing wrappers around braidket's public functions, installed from outside.

Nothing inside ``src/`` changes: ``Recorder.install`` replaces each listed
function in every ``braidket`` module that holds a reference to it (``braid``
imports ``multiply`` by name, ``cli`` imports ``bracket_via_trace`` by name,
and so on), and ``uninstall`` puts the originals back.  The untraced worker never
imports this module, so it runs with no wrapper.

Every call of a function in ``SPANS`` becomes a span ``[name, start, end,
parent, op, leaf_s, size, out, pause_s]`` kept in memory: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the index of the
operation, ``size`` the work the arguments ask for (letters, shots) and
``out`` a property of the result (live diagrams, exponent span, unitarity
deviation).  The time a wrapper spends on its own bookkeeping, ``size`` and
``out`` included, is added to ``pause_s`` of every enclosing span, and a
span's duration is ``end - start - pause_s``: the enclosing spans' clocks
stop while the benchmark works.  Laurent multiplication is too hot to record
call by call, so it is totalled instead and its time is added to ``leaf_s``
of the span it ran under.  Self time is a span's duration minus the
durations of its child spans and ``leaf_s``.

The union-find calls are hotter still: a wrapper would double their cost.
``install_counters`` counts them alone, in a pass of their own whose times
are not reported.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

#: (module, function) pairs whose calls become spans.
SPANS = (
    ("braidket.cli", "main"),
    ("braidket.braid", "parse_braid"),
    ("braidket.braid", "bracket_via_trace"),
    ("braidket.braid", "rho_tl"),
    ("braidket.braid", "closure_to_diagram"),
    ("braidket.tl", "multiply"),
    ("braidket.tl", "markov_trace"),
    ("braidket.diagram", "enumerate_states"),
    ("braidket.diagram", "bracket_state_sum"),
    ("braidket.diagram", "normalize"),
    ("braidket.matrixrep", "z_amplitude"),
    ("braidket.matrixrep", "rho_matrix"),
    ("braidket.matrixrep", "trace_product"),
    ("braidket.verify", "run_all"),
    ("braidket.unitary3", "rho_unitary"),
    ("braidket.unitary3", "bracket_from_trace"),
    ("braidket.qsim", "estimate_matrix_moduli"),
    ("braidket.qsim", "evolve"),
    ("braidket.qsim", "sample_shots"),
)

#: Per-layer metrics with their units, in print order.
METRICS = (
    ("cli.self_ms", "ms"),
    ("braid.rho_tl.us_per_letter", "us/letter"),
    ("braid.closure_to_diagram.ms", "ms"),
    ("tl.multiply.calls", "1/op"),
    ("tl.multiply.self_ms", "ms/op"),
    ("tl.live_diagrams.peak", "count"),
    ("tl.glue.hit_ratio", "ratio"),
    ("tl.glue.misses", "count"),
    ("tl.markov_trace.ms", "ms"),
    ("laurent.mul.calls", "1/op"),
    ("laurent.mul.self_ms", "ms/op"),
    ("laurent.mul.coeff_products", "1/op"),
    ("laurent.divexact.ms", "ms"),
    ("laurent.trace_span.max", "count"),
    ("diagram.enumerate_states.ms", "ms"),
    ("diagram.states", "1/op"),
    ("diagram.states_per_s", "1/s"),
    ("diagram.bracket_state_sum.self_ms", "ms/op"),
    ("uf.union.calls", "1/op"),
    ("uf.find.calls", "1/op"),
    ("matrixrep.z_amplitude.ms", "ms"),
    ("matrixrep.rho_matrix.ms", "ms"),
    ("matrixrep.trace_product.ms", "ms"),
    ("verify.run_all.ms", "ms"),
    ("unitary3.rho_unitary.us_per_letter", "us/letter"),
    ("unitary3.rho_unitary.calls_per_op", "1/op"),
    ("unitary3.unitarity_dev.max", "ratio"),
    ("qsim.sample_shots.ns_per_shot", "ns/shot"),
    ("qsim.evolve.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _letters(args, kwargs) -> int:
    return len(args[0].letters)


def _shots(args, kwargs) -> int:
    return kwargs["shots"] if "shots" in kwargs else args[1]


def _live_diagrams(result) -> int:
    return len(result.combo)


def _exponent_span(result) -> int:
    return 0 if result.is_zero else result.max_exponent() - result.min_exponent()


def _state_count(result) -> int:
    return len(result)


def _unitarity_deviation(result) -> float:
    import numpy as np

    return float(np.max(np.abs(result.conj().T @ result - np.eye(result.shape[0]))))


_SIZE = {"rho_tl": _letters, "rho_unitary": _letters, "sample_shots": _shots}
_OUT = {
    "multiply": _live_diagrams,
    "markov_trace": _exponent_span,
    "enumerate_states": _state_count,
    "rho_unitary": _unitarity_deviation,
}


def _coeff_products(args) -> int:
    a, b = args
    return len(a) * (len(b) if hasattr(b, "min_exponent") else (1 if b else 0))


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        #: name -> [calls, seconds, work] for the totalled hot calls.
        self.totals: dict[str, list] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, size=None, out=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            begin = perf_counter()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, None, None, 0.0]
            if size is not None:
                rec[6] = size(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if out is not None:
                rec[7] = out(result)
            paused = perf_counter() - rec[2] + rec[1] - begin
            for index in stack:
                spans[index][8] += paused
            return result

        return wrapper

    def _timed_leaf(self, name, fn, work):
        spans, stack = self.spans, self.stack
        total = self.totals.setdefault(name, [0, 0.0, 0])

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            total[0] += 1
            total[1] += elapsed
            total[2] += work(args)
            if stack:
                spans[stack[-1]][5] += elapsed
            return result

        return wrapper

    def _counted(self, name, fn):
        total = self.totals.setdefault(name, [0, 0.0, 0])

        def wrapper(*args):
            total[0] += 1
            return fn(*args)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from braidket.laurent import LaurentPoly

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "braidket"]
        for module_name, attr in SPANS:
            original = getattr(sys.modules[module_name], attr)
            layer = module_name.split(".")[1]
            wrapper = self._span(f"{layer}.{attr}", original, _SIZE.get(attr), _OUT.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        mul = self._timed_leaf("laurent.mul", LaurentPoly.__mul__, _coeff_products)
        self._replace(LaurentPoly, "__mul__", mul)
        self._replace(LaurentPoly, "__rmul__", mul)
        self._replace(LaurentPoly, "divexact", self._span("laurent.divexact", LaurentPoly.divexact))

    def install_counters(self):
        from braidket._uf import DisjointSet

        self._replace(DisjointSet, "find", self._counted("uf.find", DisjointSet.find))
        self._replace(DisjointSet, "union", self._counted("uf.union", DisjointSet.union))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            keys = ("name", "start", "end", "parent", "op", "leaf_s", "size", "out", "pause_s")
            for rec in self.spans:
                handle.write(json.dumps(dict(zip(keys, rec))) + "\n")
            handle.write(json.dumps({"totals": self.totals}) + "\n")


def summarize(spans: list[list], totals: dict, ops: int, glue: tuple[int, int]) -> dict:
    """Per-layer metrics from recorded spans; ``glue`` is (hits, misses) of
    ``tl._glue`` over the traced operations.  A layer the workload does not
    reach reads 0."""
    durations = [rec[2] - rec[1] - rec[8] for rec in spans]
    child = [0.0] * len(spans)
    for rec, duration in zip(spans, durations):
        if rec[3] >= 0:
            child[rec[3]] += duration
    per: dict[str, dict] = {}
    for index, rec in enumerate(spans):
        entry = per.setdefault(rec[0], {"calls": 0, "incl": 0.0, "self": 0.0, "size": 0, "out": []})
        duration = durations[index]
        entry["calls"] += 1
        entry["incl"] += duration
        entry["self"] += duration - child[index] - rec[5]
        entry["size"] += rec[6] or 0
        if rec[7] is not None:
            entry["out"].append(rec[7])
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "size": 0, "out": []}
    ops = max(ops, 1)

    def get(name):
        return per.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_ms(name):
        return ratio(get(name)["incl"], get(name)["calls"]) * 1e3

    def per_op(name, key):
        return get(name)[key] / ops

    def peak(name):
        return max(get(name)["out"], default=0)

    def total(name):
        return totals.get(name, [0, 0.0, 0])

    hits, misses = glue
    states = sum(get("diagram.enumerate_states")["out"])
    return {
        "cli.self_ms": ratio(get("cli.main")["self"], get("cli.main")["calls"]) * 1e3,
        "braid.rho_tl.us_per_letter": ratio(get("braid.rho_tl")["incl"], get("braid.rho_tl")["size"]) * 1e6,
        "braid.closure_to_diagram.ms": mean_ms("braid.closure_to_diagram"),
        "tl.multiply.calls": per_op("tl.multiply", "calls"),
        "tl.multiply.self_ms": per_op("tl.multiply", "self") * 1e3,
        "tl.live_diagrams.peak": peak("tl.multiply"),
        "tl.glue.hit_ratio": ratio(hits, hits + misses),
        "tl.glue.misses": misses,
        "tl.markov_trace.ms": mean_ms("tl.markov_trace"),
        "laurent.mul.calls": total("laurent.mul")[0] / ops,
        "laurent.mul.self_ms": total("laurent.mul")[1] / ops * 1e3,
        "laurent.mul.coeff_products": total("laurent.mul")[2] / ops,
        "laurent.divexact.ms": mean_ms("laurent.divexact"),
        "laurent.trace_span.max": peak("tl.markov_trace"),
        "diagram.enumerate_states.ms": mean_ms("diagram.enumerate_states"),
        "diagram.states": states / ops,
        "diagram.states_per_s": ratio(states, get("diagram.enumerate_states")["incl"]),
        "diagram.bracket_state_sum.self_ms": per_op("diagram.bracket_state_sum", "self") * 1e3,
        "uf.union.calls": total("uf.union")[0] / ops,
        "uf.find.calls": total("uf.find")[0] / ops,
        "matrixrep.z_amplitude.ms": mean_ms("matrixrep.z_amplitude"),
        "matrixrep.rho_matrix.ms": mean_ms("matrixrep.rho_matrix"),
        "matrixrep.trace_product.ms": mean_ms("matrixrep.trace_product"),
        "verify.run_all.ms": mean_ms("verify.run_all"),
        "unitary3.rho_unitary.us_per_letter": ratio(
            get("unitary3.rho_unitary")["incl"], get("unitary3.rho_unitary")["size"]
        ) * 1e6,
        "unitary3.rho_unitary.calls_per_op": per_op("unitary3.rho_unitary", "calls"),
        "unitary3.unitarity_dev.max": peak("unitary3.rho_unitary"),
        "qsim.sample_shots.ns_per_shot": ratio(
            get("qsim.sample_shots")["incl"], get("qsim.sample_shots")["size"]
        ) * 1e9,
        "qsim.evolve.ms": mean_ms("qsim.evolve"),
    }
