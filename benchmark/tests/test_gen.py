"""The generator: deterministic in its seed, and independent of braidket."""

import ast
import itertools
import json
import subprocess
import sys

import pytest

import gen

WORKLOADS = ("trace-wide", "pd-states", "small-mixed", "qsim-long", "qsim-drift")


def first_ops(workload, seed, count):
    return json.dumps(list(itertools.islice(gen.ops(workload, seed, 2), count)), sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    count = 8 if workload == "qsim-drift" else 200
    assert first_ops(workload, 7, count) == first_ops(workload, 7, count)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    count = 4 if workload == "qsim-drift" else 200
    assert first_ops(workload, 7, count) != first_ops(workload, 8, count)


def test_generator_imports_only_the_standard_library():
    tree = ast.parse(gen.__loader__.get_source("gen"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}


def test_generating_loads_no_braidket_module():
    code = (
        "import itertools, sys, gen\n"
        "for w in gen.WORKLOADS:\n"
        "    list(itertools.islice(gen.ops(w, 1, 1), 50 if w != 'qsim-drift' else 1))\n"
        "    gen.warmup_op(w)\n"
        "assert not [m for m in sys.modules if m.startswith('braidket')]\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=gen.REFS_PATH.parent)


def test_pass_composition_is_fixed():
    """Two seeds give passes of the same size and mix of crossing counts."""
    def first_pass(seed):
        return sorted(len(op["pd"]["crossings"]) for op in gen.ops("pd-states", seed, 1))

    assert first_pass(1) == first_pass(2)


def test_run_length_is_a_fixed_number_of_passes():
    assert gen.passes("pd-states", 15) == 3 and gen.passes("small-mixed", 15) == 1
    ids = [op["id"] for op in gen.ops("qsim-long", 3, gen.passes("qsim-long", 15))]
    assert len(ids) == gen.passes("qsim-long", 15) * gen.QSIM_LONG_PER_PASS
    assert len(set(ids)) == len(ids)


def test_trace_wide_passes_repeat_only_the_heavy_words():
    refs = gen.load_refs()
    entries = refs["trace-wide"]["entries"]
    assert set(entries) == {gen.pool_key(n, w) for n, w in gen.trace_wide_candidates()}
    keys = [op["check"]["key"] for op in gen.ops("trace-wide", 3, 2, refs)]
    first, second = keys[: len(keys) // 2], keys[len(keys) // 2 :]
    assert len(set(first)) == len(first) and len(set(second)) == len(second)
    heavy = {k for k in entries if entries[k]["ms"] > gen.HEAVY_MS}
    assert heavy <= set(first) & set(second) and len(set(first) & set(second)) <= len(heavy) + 1
    assert set(keys) == set(entries)
    other = [op["check"]["key"] for op in gen.ops("trace-wide", 4, 1, refs)]
    assert len(other) == len(first) and set(other) != set(first)
