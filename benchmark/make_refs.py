"""Write refs.json, the stored references of the benchmark.

Run from the repository root at the commit whose outputs are the reference::

    python3 benchmark/make_refs.py --source "seed commit da742ef"

* ``trace-wide``: ``jones`` stdout of every trace-wide candidate word, and
  the wall time it took (``ms``, the faster of two runs, which sorts the
  words into pairs of like cost).  No
  second evaluation path is affordable at 6..9 strands and 16..30 letters,
  so the source is the named commit.
* ``words3``: the bracket of every 3-strand word of at most 6 letters, from
  the state sum.  It is also required to equal the commit's ``bracket``
  stdout.  The 5461 words have few distinct brackets, so the file stores the
  distinct texts once (``polys``) and one index per word (``index``).
* ``verify-5``: stdout of ``verify --n 5`` from the named commit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from braidket.braid import BraidWord, closure_to_diagram  # noqa: E402
from braidket.cli import main as cli_main  # noqa: E402
from braidket.diagram import bracket_state_sum  # noqa: E402


def stdout_of(argv: list[str]) -> tuple[str, float]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"{argv[:4]} exited {rc}")
    return out.getvalue(), elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source", required=True, help="the commit the outputs come from")
    args = parser.parse_args()

    entries = {}
    for strands, letters in gen.trace_wide_candidates():
        argv = ["jones", "--strands", str(strands), "--word", " ".join(map(str, letters))]
        text, first = stdout_of(argv)
        ms = min(first, stdout_of(argv)[1]) * 1e3
        entries[gen.pool_key(strands, letters)] = {"stdout": text, "ms": round(ms, 1)}

    polys: list[str] = []
    index = []
    for letters in gen.three_strand_words():
        word = BraidWord(3, letters)
        text = str(bracket_state_sum(closure_to_diagram(word)))
        cli_text, _ = stdout_of(["bracket", "--strands", "3", "--word", " ".join(map(str, letters))])
        if cli_text != text + "\n":
            raise SystemExit(f"state sum {text!r} and trace {cli_text!r} differ on {letters}")
        if text not in polys:
            polys.append(text)
        index.append(polys.index(text))

    verify, _ = stdout_of(["verify", "--n", "5"])
    refs = {
        "trace-wide": {"source": args.source, "entries": entries},
        "words3": {"source": "state-sum", "polys": polys, "index": index},
        "verify-5": {"source": args.source, "stdout": verify},
    }
    gen.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
