"""braidket benchmark: seeded workloads, run as closed loops, with every output checked.

Run from the repository root::

    python3 benchmark/run.py --workload trace-wide --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all            # every workload, one row each
    python3 benchmark/run.py --workload pd-states --trace 1   # per-layer metrics

Each workload runs in a worker process of its own: one caller, one thread,
each operation an in-process call to ``braidket.cli.main(argv)`` (or, where
named, to one library function), the next issued when the previous returns.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workloads listed in BENCHMARK.json; ``--workload all`` runs these.  The
#: other one, qsim-drift, runs by name: its words are past the length where
#: the seed's unitarity check trips, and each operation takes half a minute.
WORKLOADS = ("trace-wide", "pd-states", "small-mixed", "qsim-long")

#: op_tail_ms is the highest of these percentiles that leaves at least ten
#: samples beyond it.  A run's operation count is fixed by the workload and
#: --seconds, so the percentile is too.
TAIL_PERCENTILES = (99, 90, 75, 50)

#: setup_s is measured SETUP_REPEATS times, each probe right after a
#: reference process that imports numpy and allocates as calibrate.python_loop
#: does.  Each probe is scaled by SETUP_REFERENCE_S over its reference's time,
#: and setup_s is the median: the set-up time on a machine where the
#: reference takes SETUP_REFERENCE_S.  Start-up time on a shared machine
#: drifts by half from one minute to the next; the reference, like the probe
#: mostly imports and then Python work, drifts with it.
SETUP_REPEATS = 11
SETUP_REFERENCE = "import numpy\nkept = [{(i, i + 1): (i * 12345678901234567, -i)} for i in range(30000)]"
SETUP_REFERENCE_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
#: failed_ratio is 0 whenever the program is correct, so it is printed but left
#: out of the JSON metrics; the JSON carries it as ``failed`` / ``attempted``.
JSON_END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(count: int) -> int:
    return next((p for p in TAIL_PERCENTILES if percentile([0.0] * count, p)[1] >= 10), 50)


def _timed(argv: list[str], timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    return proc, time.perf_counter() - start


def _worker(job: dict, timeout: float) -> tuple[dict, float]:
    proc, elapsed = _timed([sys.executable, str(HERE / "worker.py"), json.dumps(job)], timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker ({job['mode']}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else {}), elapsed


class Workload:
    def __init__(self, name: str, seed: int, passes: int, workdir: Path, refs: dict, checker):
        self.name, self.seed, self.passes = name, seed, passes
        self.workdir, self.refs, self.checker = workdir, refs, checker
        self.spans_path = ROOT / ".benchmark-out" / f"{name}.spans.jsonl"

    def _job(self, mode: str, trace: bool = False) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return {
            "mode": mode,
            "workload": self.name,
            "seed": self.seed,
            "passes": self.passes,
            "trace": trace,
            "warmup": gen.warmup_op(self.name),
            "src": str(SRC),
            "workdir": str(self.workdir),
            "spans_path": str(self.spans_path),
        }

    def setup_seconds(self) -> tuple[float, str]:
        """Median of SETUP_REPEATS probes, each a fresh interpreter that
        imports braidket and runs one warm-up operation, scaled by the
        reference process run just before it."""
        probes, scaled = [], []
        for _ in range(SETUP_REPEATS):
            proc, reference = _timed([sys.executable, "-c", SETUP_REFERENCE], timeout=120)
            if proc.returncode != 0:
                raise BenchmarkError(f"reference process exited {proc.returncode}: {proc.stderr[-2000:]}")
            probe = _worker(self._job("probe"), timeout=120)[1]
            probes.append(probe)
            scaled.append(probe * SETUP_REFERENCE_S / reference)
        note = f"median of {SETUP_REPEATS} probes: import + warm-up op; raw {statistics.median(probes):.4g}"
        return statistics.median(scaled), note

    def loop(self, trace: bool) -> dict:
        """Run the closed loop; each record gains its raw latency ``raw_s``
        and its latency scaled to the nominal machine speed ``s``.  The
        summed latency behind ops_per_s, ``scaled_busy_s``, is scaled by the
        workload's other loop where it has one."""
        summary, _ = _worker(self._job("loop", trace), timeout=900)
        records = self.read("results.jsonl")
        with open(self.workdir / "calibration.json", encoding="utf-8") as handle:
            points = json.load(handle)
        intervals = [(r["t0"], r["t1"]) for r in records]
        rate_loop, latency_loop = gen.CALIBRATION[self.name]
        rate = calibrate.scale_factors(rate_loop, points[rate_loop], intervals)
        latency = calibrate.scale_factors(latency_loop, points[latency_loop], intervals)
        for rec, factor in zip(records, latency):
            rec["raw_s"] = rec["t1"] - rec["t0"]
            rec["s"] = rec["raw_s"] * factor
        summary["records"] = records
        summary["scaled_busy_s"] = sum(r["raw_s"] * factor for r, factor in zip(records, rate))
        return summary

    def read(self, name: str) -> list[dict]:
        with open(self.workdir / name, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    def check(self, records: list[dict]) -> tuple[list[str], dict[str, int]]:
        operations = list(gen.ops(self.name, self.seed, self.passes, self.refs))
        if len(operations) != len(records):
            raise BenchmarkError(f"{len(records)} results for {len(operations)} operations")
        return check_records(self.checker, operations, records)


def check_records(checker, operations: list[dict], records: list[dict]) -> tuple[list[str], dict[str, int]]:
    """Check every record against its operation's reference; return the
    failures and the number of operations checked per reference source."""
    failures, sources = [], {}
    for op, rec in zip(operations, records):
        if op["id"] != rec["id"]:
            raise BenchmarkError(f"operation {rec['id']} does not match generator id {op['id']}")
        source, problem = checker.check(op, rec)
        sources[source] = sources.get(source, 0) + 1
        if problem is not None:
            failures.append(f"{rec['id']} {describe(op)}: {problem}")
    return failures, sources


def describe(op: dict) -> str:
    if op["kind"] == "cli":
        text = " ".join(op["argv"]) + (" --pd <diagram>" if op.get("pd") else "")
    else:
        text = f"{op['kind']} {op.get('words') or op.get('word')}"
    return text if len(text) <= 90 else text[:87] + "..."


def end_to_end(work: Workload) -> dict:
    setup, setup_note = work.setup_seconds()
    run = work.loop(trace=False)
    failures, sources = work.check(run["records"])
    latencies = [rec["s"] * 1e3 for rec in run["records"]]
    attempted = len(latencies)
    p = tail_percentile(attempted)
    tail, beyond = percentile(latencies, p)
    values = {
        "setup_s": setup,
        "ops_per_s": attempted / run["scaled_busy_s"],
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "failed_ratio": len(failures) / attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = [rec["raw_s"] * 1e3 for rec in run["records"]]
    notes = {
        "setup_s": setup_note,
        "ops_per_s": f"{attempted} operations ({work.passes} passes) in {run['busy_s']:.2f} s; "
        f"raw {attempted / run['busy_s']:.4g}",
        "op_p50_ms": f"raw {statistics.median(raw):.4g}",
        "op_tail_ms": f"p{p} of {attempted} samples, {beyond} beyond it; raw {percentile(raw, p)[0]:.4g}",
        "failed_ratio": f"{len(failures)} failed of {attempted} attempted",
        "peak_rss_mb": "peak resident memory of the worker process",
    }
    return {
        "values": values,
        "notes": notes,
        "attempted": attempted,
        "failures": failures,
        "sources": sources,
    }


def per_layer(work: Workload) -> dict:
    plain = work.loop(trace=False)
    traced = work.loop(trace=True)
    counted = work.read("counted.jsonl")
    failures, sources = work.check(plain["records"])
    traced_failures, _ = work.check(traced["records"])
    failures += [f"traced {line}" for line in traced_failures]
    for a, b, c in zip(plain["records"], traced["records"], counted):
        if not (a["rc"], a["out"]) == (b["rc"], b["out"]) == (c["rc"], c["out"]):
            failures.append(f"{a['id']}: traced or counted output differs from untraced output")
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = (traced["ops"] / traced["scaled_busy_s"]) / (
        plain["ops"] / plain["scaled_busy_s"]
    )
    hits, misses = traced["glue"]
    notes = {
        "tl.glue.hit_ratio": f"base: {hits + misses} lookups",
        "laurent.mul.coeff_products": f"total {traced['coeff_products_total']} over {traced['ops']} operations",
        "trace.overhead_ratio": f"traced vs untraced, {traced['ops']} ops each",
        "uf.find.calls": "counted in a pass of their own, with no other wrapper",
    }
    return {
        "values": values,
        "notes": notes,
        "attempted": plain["ops"] + traced["ops"],
        "failures": failures,
        "sources": sources,
        "spans": work.spans_path,
    }


def print_report(name: str, seed: int, seconds: float, trace: bool, result: dict) -> None:
    mode = "traced, per-layer metrics" if trace else "untraced, end-to-end metrics"
    print(f"workload {name}  seed {seed}  --seconds {seconds:g}  closed loop, 1 caller, 1 thread  ({mode})")
    units = dict(spans.METRICS) if trace else END_TO_END_UNITS
    for metric, unit in units.items():
        note = result["notes"].get(metric, "")
        print(f"  {metric:38s} {result['values'][metric]:<14.6g} {unit:10s} {note}".rstrip())
    sources = ", ".join(f"{k} {v}" for k, v in sorted(result["sources"].items()))
    print(f"  references: {sources}")
    if trace:
        print(f"  spans written to {result['spans']}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    if len(result["failures"]) > 20:
        print(f"  ... {len(result['failures']) - 20} more failures")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidket" / "cli.py").is_file():
        print(f"error: no braidket sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = gen.load_refs()
    checker = check.Checker(refs)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".benchmark-tmp" / str(os.getpid())
    (ROOT / ".benchmark-out").mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            # A traced run makes two timed runs, so each has half the seconds.
            passes = gen.passes(name, args.seconds / 2 if args.trace else args.seconds)
            work = Workload(name, args.seed, passes, scratch / name, refs, checker)
            results[name] = per_layer(work) if args.trace else end_to_end(work)
            print_report(name, args.seed, args.seconds, bool(args.trace), results[name])
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = dict(spans.METRICS) if args.trace else {m: END_TO_END_UNITS[m] for m in JSON_END_TO_END}
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": result["values"][metric], "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
