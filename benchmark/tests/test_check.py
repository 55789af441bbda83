"""Self-tests of the output checker and of the traced run."""

import copy
import itertools
from pathlib import Path

import pytest

import braidket
import braidket.cli
import check
import gen
import run
import spans
import worker
from braidket.laurent import LaurentPoly


@pytest.fixture(scope="module")
def refs():
    return gen.load_refs()


def execute(ops, workdir: Path):
    records = []
    for op in ops:
        rc, out, err = worker.run_op(worker.prepare(braidket, op, workdir))
        records.append({"id": op["id"], "rc": rc, "out": out, "err": err})
    return records


def first(workload, count, seed=5):
    return list(itertools.islice(gen.ops(workload, seed, 1), count))


def check_records(name, refs, records, seed=5):
    return run.check_records(check.Checker(refs), first(name, len(records), seed), records)


@pytest.mark.parametrize("workload, count", [("small-mixed", 60), ("pd-states", 2), ("trace-wide", 3)])
def test_outputs_of_the_seed_pass(workload, count, refs, tmp_path):
    failures, sources = check_records(workload, refs, execute(first(workload, count), tmp_path))
    assert failures == []
    assert sum(sources.values()) == count


def test_corrupted_reference_fails_and_names_the_operation(refs, tmp_path):
    ops = first("small-mixed", 60)
    records = execute(ops, tmp_path)
    target = next(op for op in ops if op["check"]["ref"] == "words3" and op["kind"] == "cli")
    bad = copy.deepcopy(refs)
    index = bad["words3"]["index"][target["check"]["index"]]
    bad["words3"]["polys"][index] += " + A^99"
    failures, _ = check_records("small-mixed", bad, records)
    assert 0 < len(failures) / len(records)
    assert any(line.startswith(target["id"] + " bracket") for line in failures)


def test_wrong_exit_code_and_qsim_counts_fail(refs, tmp_path):
    ops = first("qsim-long", 1)
    records = execute(ops, tmp_path)
    assert check_records("qsim-long", refs, records) == ([], {"tree-product": 1})
    broken = dict(records[0], out=records[0]["out"].replace('"counts": [', '"counts": [1, '))
    failures, _ = check_records("qsim-long", refs, [broken])
    assert failures and failures[0].startswith(ops[0]["id"])
    failed_exit = dict(records[0], rc=1)
    assert check_records("qsim-long", refs, [failed_exit])[0]


def test_traced_and_untraced_outputs_agree(tmp_path):
    ops = first("small-mixed", 40) + first("pd-states", 1) + first("qsim-long", 1) + first("trace-wide", 2)
    original = braidket.cli.main
    plain = execute(ops, tmp_path)
    assert braidket.cli.main is original
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert braidket.cli.main is not original
        traced = execute(ops, tmp_path)
    finally:
        recorder.uninstall()
    assert braidket.cli.main is original
    assert LaurentPoly.__mul__.__qualname__ == "LaurentPoly.__mul__"
    assert [(r["rc"], r["out"]) for r in plain] == [(r["rc"], r["out"]) for r in traced]
    names = {rec[0] for rec in recorder.spans}
    assert {"cli.main", "tl.multiply", "diagram.enumerate_states", "unitary3.rho_unitary"} <= names
    layers = spans.summarize(recorder.spans, recorder.totals, len(ops), (1, 1))
    assert set(layers) | {"trace.overhead_ratio"} == {name for name, _ in spans.METRICS}
    assert layers["unitary3.rho_unitary.calls_per_op"] > 0
    assert layers["uf.find.calls"] == 0


def test_counters_count_union_find_alone(tmp_path):
    from braidket._uf import DisjointSet

    original, main = DisjointSet.find, braidket.cli.main
    counter = spans.Recorder()
    counter.install_counters()
    try:
        assert DisjointSet.find is not original and braidket.cli.main is main
        execute(first("pd-states", 1), tmp_path)
    finally:
        counter.uninstall()
    assert DisjointSet.find is original
    assert counter.spans == [] and counter.totals["uf.find"][0] > counter.totals["uf.union"][0] > 0


def test_self_time_subtracts_children_and_pauses():
    spans_ = [
        ["cli.main", 0.0, 10.0, -1, 0, 1.0, None, None, 0.5],
        ["braid.rho_tl", 2.0, 6.0, 0, 0, 0.5, 4, None, 0.0],
    ]
    layers = spans.summarize(spans_, {}, 1, (0, 0))
    assert layers["cli.self_ms"] == pytest.approx((10.0 - 0.5 - 4.0 - 1.0) * 1e3)
    assert layers["braid.rho_tl.us_per_letter"] == pytest.approx(1e6)


def test_wrapper_bookkeeping_pauses_enclosing_spans():
    recorder = spans.Recorder()
    inner = recorder._span("tl.markov_trace", lambda: 1, out=lambda result: sum(range(200_000)))
    outer = recorder._span("cli.main", inner)
    outer()
    (_, start, end, *_, pause), _ = recorder.spans
    assert end - start - pause < pause


@pytest.mark.parametrize("text", ["0", "1", "-A^5 - A^-3 + A^-7", "2*A^4 - 3 + A^-2", "-2"])
def test_parse_poly_inverts_rendering(text):
    terms = check.parse_poly(text)
    assert str(LaurentPoly(terms)) == text


def test_tree_product_matches_rho_unitary():
    import numpy as np

    word = "1 -2 2 1 -1 -2 2 2 1"
    setup = braidket.unitary_generators(0.3)
    expected = braidket.rho_unitary(braidket.parse_braid(word, 3), setup)
    assert np.max(np.abs(check.tree_product(word, 0.3) - expected)) < 1e-12


@pytest.mark.parametrize("workload", ["trace-wide", "pd-states", "small-mixed", "qsim-long"])
def test_generated_argv_parses(workload):
    parser = braidket.cli._build_parser()
    for op in first(workload, 400, seed=107):
        if op["kind"] == "cli":
            parser.parse_args(op["argv"] + (["--pd", "diagram.json"] if op.get("pd") else []))


def test_argparse_exit_is_a_failed_operation(refs, tmp_path):
    op = first("qsim-long", 1)[0]
    argv = list(op["argv"])
    argv[argv.index("--theta") + 1] = "-4.5e-05"
    rc, _, err = worker.run_op(worker.prepare(braidket, dict(op, argv=argv), tmp_path))
    assert rc == 2 and "--theta" in err
    failures, _ = check_records("qsim-long", refs, [{"id": op["id"], "rc": rc, "out": "", "err": err}])
    assert failures


def test_calibration_samples_every_named_loop_once(tmp_path):
    import json

    import calibrate

    samples = calibrate.Samples(("python", "gaussian", "python"))
    samples.sample()
    samples.write(tmp_path / "calibration.json")
    points = json.loads((tmp_path / "calibration.json").read_text())
    assert sorted(points) == ["gaussian", "python"] and all(len(p) == 2 for p in points.values())
    t = points["python"][1][0]
    nominal = calibrate.LOOPS["python"][1]
    expected = nominal / ((points["python"][0][1] + points["python"][1][1]) / 2)
    assert calibrate.scale_factors("python", points["python"], [(t, t)]) == [pytest.approx(expected)]
