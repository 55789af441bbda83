"""One workload's closed loop, in a process of its own.

Usage: ``python3 worker.py JOB_JSON``, where the job names the workload,
seed, number of passes, mode and directories; see ``run.py``.  Modes:

* ``probe``: import braidket, run the warm-up operation given in the job,
  exit.  The caller times the whole process to get the set-up time, so this
  mode imports no other module of the benchmark.
* ``loop``: run the warm-up operation, then the run's operations one after
  another (one caller, one thread: the next starts when the previous
  returns).  The workload's calibration loops of ``calibrate.py`` are timed
  every few tens of milliseconds in between.  Each result is appended to
  ``results.jsonl`` in the job's directory outside the timed region, so the
  process's peak memory does not grow with the number of outputs; the
  calibration samples go to ``calibration.json``.  With ``trace`` set,
  timing wrappers are installed after the warm-up and the spans are written
  to ``spans_path``; then the operations run once more with only the
  union-find counters installed, whose cost would distort the timed spans,
  and their outputs go to ``counted.jsonl``.  A summary is printed as one
  JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_braidket(src: str):
    sys.path.insert(0, src)
    import braidket
    import braidket.cli

    location = Path(braidket.__file__).resolve()
    if Path(src).resolve() not in location.parents:
        raise SystemExit(f"braidket was imported from {location}, not from {src}")
    return braidket


def _captured(fn):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn()
    return rc, out.getvalue(), err.getvalue()


def _exit_code(main, argv) -> int:
    """main(argv), or the code it exits with, as the console script would."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def prepare(braidket, op: dict, workdir: Path):
    """Return a no-argument callable that performs op and returns
    (exit code, stdout, stderr).  Files are written here, before timing."""
    kind = op["kind"]
    if kind == "cli":
        argv = list(op["argv"])
        if op.get("pd") is not None:
            path = workdir / "diagram.json"
            path.write_text(json.dumps(op["pd"]), encoding="utf-8")
            argv += ["--pd", str(path)]
        return lambda: _captured(lambda: _exit_code(braidket.cli.main, argv))
    if kind == "trace5":

        def trace5():
            unitary3, braid = braidket.unitary3, braidket.braid
            setups = [unitary3.unitary_generators(theta) for theta in op["thetas"]]
            values = []
            for text in op["words"]:
                word = braid.parse_braid(text, 3)
                for setup in setups:
                    value = unitary3.bracket_from_trace(word, setup)
                    values.append([value.real, value.imag])
            return 0, json.dumps(values), ""

        return trace5
    if kind == "z_amplitude":

        def z_amplitude():
            word = braidket.braid.parse_braid(op["word"], op["strands"])
            return 0, json.dumps(braidket.matrixrep.z_amplitude(word).to_json()), ""

        return z_amplitude
    raise ValueError(f"unknown operation kind {kind!r}")


def run_op(call):
    try:
        return call()
    except Exception:  # an operation that raises is a failed operation, not a crash
        return "raised", "", traceback.format_exc(limit=3)


def timed_loop(braidket, operations, workdir: Path, samples, recorder=None) -> tuple[int, float]:
    """Run the operations; return how many ran and their summed latency."""
    count, busy = 0, 0.0
    with open(workdir / "results.jsonl", "w", encoding="utf-8") as results:
        for op in operations:
            call = prepare(braidket, op, workdir)
            samples.maybe_sample()
            if recorder is not None:
                recorder.op = count
            start = time.perf_counter()
            rc, out, err = run_op(call)
            end = time.perf_counter()
            busy += end - start
            count += 1
            record = {"id": op["id"], "rc": rc, "out": out, "err": err, "t0": start, "t1": end}
            results.write(json.dumps(record) + "\n")
    samples.sample()
    return count, busy


def counted_loop(braidket, operations, workdir: Path) -> dict:
    """Run the operations again with only the counters installed."""
    import spans

    counter = spans.Recorder()
    counter.install_counters()
    try:
        with open(workdir / "counted.jsonl", "w", encoding="utf-8") as results:
            for op in operations:
                rc, out, _ = run_op(prepare(braidket, op, workdir))
                results.write(json.dumps({"id": op["id"], "rc": rc, "out": out}) + "\n")
    finally:
        counter.uninstall()
    return counter.totals


def main() -> int:
    job = json.loads(sys.argv[1])
    braidket = _import_braidket(job["src"])
    workdir = Path(job["workdir"])
    rc, _, err = run_op(prepare(braidket, job["warmup"], workdir))
    if job["mode"] == "probe":
        if rc != 0:
            print(f"warm-up operation failed with {rc}: {err}", file=sys.stderr)
        return 0 if rc == 0 else 1

    import calibrate
    import gen

    def operations():
        return gen.ops(job["workload"], job["seed"], job["passes"])

    recorder = None
    glue_before = braidket.tl._glue.cache_info()
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    samples = calibrate.Samples(gen.CALIBRATION[job["workload"]])
    try:
        count, busy = timed_loop(braidket, operations(), workdir, samples, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    samples.write(workdir / "calibration.json")

    summary = {
        "ops": count,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        glue_after = braidket.tl._glue.cache_info()
        glue = (glue_after.hits - glue_before.hits, glue_after.misses - glue_before.misses)
        recorder.write(job["spans_path"])
        totals = dict(recorder.totals, **counted_loop(braidket, operations(), workdir))
        summary["layers"] = spans.summarize(recorder.spans, totals, count, glue)
        summary["glue"] = glue
        summary["coeff_products_total"] = totals.get("laurent.mul", [0, 0, 0])[2]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
