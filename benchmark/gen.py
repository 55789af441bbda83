"""Seeded inputs for the braidket benchmark.

Only the standard library is imported here: the inputs must not depend on the
code they measure.  ``ops(workload, seed, passes)`` yields the operations of
a run, pass after pass; the same seed yields the same operations.

An operation is a dict::

    {"id": "3.41", "kind": "cli", "argv": [...], "pd": {...} or None,
     "check": {...}}

``kind`` is ``cli`` (one call to ``braidket.cli.main(argv)``; a ``pd`` diagram
is written to a file and ``--pd PATH`` appended to ``argv``), ``trace5``
(``unitary3.bracket_from_trace`` at the five angles of acceptance criterion 07
for a block of 3-strand words) or ``z_amplitude`` (``matrixrep.z_amplitude`` of
one braid).  ``check`` tells the checker which reference applies.

Each pass has a fixed composition, in a seeded order, and a run is a whole
number of passes (``passes``), so every commit runs exactly the same
operations for a given seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

WORKLOADS = ("trace-wide", "pd-states", "small-mixed", "qsim-long", "qsim-drift")
#: The calibration loops (see calibrate.py) that scale each workload's times:
#: one for ops_per_s, one for the latency percentiles.
CALIBRATION = {
    "trace-wide": ("python", "gaussian"),
    "pd-states": ("python", "python"),
    "small-mixed": ("python", "python"),
    "qsim-long": ("numpy", "numpy"),
    "qsim-drift": ("numpy", "numpy"),
}

REFS_PATH = Path(__file__).with_name("refs.json")

#: Seconds of scaled operation time one pass took at the seed commit.  A run of
#: S seconds is round(S / PASS_SECONDS) passes, at least one, so the number of
#: operations is fixed by the workload and --seconds, not by the program's speed.
PASS_SECONDS = {
    "trace-wide": 15.5,
    "pd-states": 4.56,
    "small-mixed": 16.3,
    "qsim-long": 2.18,
    "qsim-drift": 120.0,
}

#: Fixed seed of the trace-wide word pool; its outputs are stored in refs.json.
POOL_SEED = 2001
#: Random pool words per strand count: a first batch, then more drawn from the
#: same generator, so the first batch stays what it was.
POOL_RANDOM_WORDS_PER_WIDTH = (15, 20)
#: Pool words slower than this at the seed commit run in every pass: the
#: costliest TL products in the range, where a pair's two words would differ
#: by up to half a second and the seed's pick would move ops_per_s.
HEAVY_MS = 800.0

#: The five angles of acceptance criterion 07.
TRACE5_THETAS = (math.pi / 10, -math.pi / 10, math.pi / 8, -math.pi / 8, math.pi / 6)
TRACE5_BLOCK = 4

SMALL_SEEDED_BRAIDS = 256
QSIM_SHOTS = 1_000_000
#: qsim-long word lengths are log-uniform over this range, one per stratum of
#: a pass.  The longest operation stays a small share of a run.
QSIM_LONG_LENGTHS = (1_000, 32_000)
QSIM_LONG_PER_PASS = 12
#: pd-states operations per pass by crossing count.  Above 11 the count about
#: halves as the 2^N state count doubles, so each crossing count gets a like
#: share of the time; the median falls inside the 11-crossing group and the
#: 75th percentile inside the 12-crossing one, not on a boundary.
PD_COUNTS = {10: 6, 11: 7, 12: 5, 13: 2}
QSIM_DRIFT_LENGTHS = (1_400_000, 2_000_000)
QSIM_DRIFT_PER_PASS = 4


def passes(workload: str, seconds: float) -> int:
    """The number of passes in a run of the given length."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _shuffled(items: list, rng: random.Random) -> list:
    rng.shuffle(items)
    return items


def _word_text(letters) -> str:
    return " ".join(str(g) for g in letters)


def _random_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    alphabet = [s * i for i in range(1, strands) for s in (1, -1)]
    return tuple(rng.choice(alphabet) for _ in range(length))


def _cli(argv, check, pd=None) -> dict:
    return {"kind": "cli", "argv": argv, "pd": pd, "check": check}


# --- trace-wide -------------------------------------------------------------


def trace_wide_candidates() -> list[tuple[int, tuple[int, ...]]]:
    """Braids on 6..9 strands with 16..30 letters: torus-type and random words.

    The torus-type words (sigma_1 ... sigma_{n-1})^k reuse the same TL diagrams
    letter after letter; the random words do not.  refs.json holds the output
    of every candidate.
    """
    rng = random.Random(POOL_SEED)
    first, more = POOL_RANDOM_WORDS_PER_WIDTH
    pool = []
    for n in range(6, 10):
        period = tuple(range(1, n))
        pool += [(n, period * k) for k in range(1, 31) if 16 <= len(period) * k <= 30]
        for _ in range(first):
            pool.append((n, _random_word(rng, n, rng.randint(16, 30))))
    for n in range(6, 10):
        for _ in range(more):
            pool.append((n, _random_word(rng, n, rng.randint(16, 30))))
    return pool


def pool_key(strands: int, letters) -> str:
    return f"{strands}:{_word_text(letters)}"


def _flip(strands: int, letters) -> tuple[int, ...]:
    """sigma_i -> sigma_{n-i}: conjugation by the half twist, so the closure
    is the same link and the jones output is unchanged."""
    return tuple((strands - abs(g)) * (1 if g > 0 else -1) for g in letters)


def _trace_wide_pool(rng: random.Random, refs: dict) -> tuple[list, list[tuple[list, int]]]:
    """The heavy words, and the other words in pairs of like cost at the
    seed commit, each pair with the seed's pick; a word is (key, strands,
    letters), flipped on a seeded coin.  With an odd count the costliest
    other word joins the heavy ones."""
    entries = refs["trace-wide"]["entries"]
    words = []
    for strands, letters in trace_wide_candidates():
        key = pool_key(strands, letters)
        word = _flip(strands, letters) if rng.random() < 0.5 else letters
        words.append((entries[key]["ms"], key, strands, word))
    words.sort()
    heavy = [w[1:] for w in words if w[0] > HEAVY_MS]
    light = [w[1:] for w in words if w[0] <= HEAVY_MS]
    if len(light) % 2:
        heavy.append(light.pop())
    pairs = [light[i : i + 2] for i in range(0, len(light), 2)]
    return heavy, [(pair, rng.randrange(2)) for pair in pairs]


def _trace_wide_pass(rng: random.Random, pool, number: int) -> list[dict]:
    """The heavy words and one word of each pair, the seed's pick; the next
    pass takes the other one.  So a pass repeats no word, the seed chooses
    which words run, and every choice costs about the same."""
    heavy, pairs = pool
    chosen = heavy + [pair[(pick + number) % 2] for pair, pick in pairs]
    ops = [
        _cli(["jones", "--strands", str(strands), "--word", _word_text(word)], {"ref": "trace-wide", "key": key})
        for key, strands, word in chosen
    ]
    return _shuffled(ops, rng)


# --- pd-states --------------------------------------------------------------


def closure_pd(strands: int, letters) -> dict:
    """PD code of the standard closure, with the slot conventions of
    ``braidket.braid.closure_to_diagram``."""
    current = list(range(strands))
    next_label = strands
    raw = []
    for g in letters:
        i = abs(g)
        left_in, right_in = current[i - 1], current[i]
        left_out, right_out = next_label, next_label + 1
        next_label += 2
        if g > 0:
            slots = (left_in, left_out, right_out, right_in)
        else:
            slots = (right_in, left_in, left_out, right_out)
        raw.append((slots, 1 if g > 0 else -1))
        current[i - 1], current[i] = left_out, right_out
    # Closing up identifies the final arc at each position with the first one.
    label = list(range(next_label))

    def root(x: int) -> int:
        while label[x] != x:
            x = label[x]
        return x

    for k in range(strands):
        label[root(current[k])] = root(k)
    crossings = [{"slots": [root(s) for s in slots], "sign": sign} for slots, sign in raw]
    free_loops = sum(1 for k in range(strands) if current[k] == k)
    return {"crossings": crossings, "free_loops": free_loops}


def add_curl(pd: dict, sign: int) -> dict:
    """Insert one kink of the given sign on the lowest-numbered arc; the
    bracket gains a factor -A^(3*sign) and the writhe shifts by sign."""
    labels = sorted({s for c in pd["crossings"] for s in c["slots"]})
    a, b, c = labels[0], labels[-1] + 1, labels[-1] + 2
    crossings, seen = [], False
    for crossing in pd["crossings"]:
        slots = []
        for s in crossing["slots"]:
            if s == a and seen:
                s = b
            elif s == a:
                seen = True
            slots.append(s)
        crossings.append({"slots": slots, "sign": crossing["sign"]})
    kink = [c, c, a, b] if sign > 0 else [a, c, c, b]
    crossings.append({"slots": kink, "sign": sign})
    return {"crossings": crossings, "free_loops": pd["free_loops"]}


def mirror(pd: dict) -> dict:
    """Swap over and under everywhere: the bracket goes from A to A^-1."""
    crossings = [
        {"slots": c["slots"][1:] + c["slots"][:1], "sign": -c["sign"]}
        for c in pd["crossings"]
    ]
    return {"crossings": crossings, "free_loops": pd["free_loops"]}


def shuffle_pd(pd: dict, rng: random.Random) -> dict:
    """Permute the crossing order and rename the arcs; the diagram is unchanged."""
    labels = sorted({s for c in pd["crossings"] for s in c["slots"]})
    fresh = list(range(1, len(labels) + 1))
    rng.shuffle(fresh)
    rename = dict(zip(labels, fresh))
    crossings = [
        {"slots": [rename[s] for s in c["slots"]], "sign": c["sign"]} for c in pd["crossings"]
    ]
    rng.shuffle(crossings)
    return {"crossings": crossings, "free_loops": pd["free_loops"]}


def pd_op(rng: random.Random, crossings: int) -> dict:
    """A jones --pd operation on a braid closure with the given crossing count."""
    strands = rng.randint(3, 5)
    curls = [rng.choice((1, -1)) for _ in range(rng.choice((0, 0, 1, 2)))]
    letters = _random_word(rng, strands, crossings - len(curls))
    pd = closure_pd(strands, letters)
    for sign in curls:
        pd = add_curl(pd, sign)
    mirrored = rng.random() < 0.5
    if mirrored:
        pd = mirror(pd)
    if rng.random() < 0.5:
        pd = shuffle_pd(pd, rng)
    check = {
        "ref": "pd-trace",
        "strands": strands,
        "word": _word_text(letters),
        "curls": curls,
        "mirror": mirrored,
    }
    return _cli(["jones"], check, pd)


def _pd_states_pass(rng: random.Random) -> list[dict]:
    return _shuffled([pd_op(rng, n) for n, count in PD_COUNTS.items() for _ in range(count)], rng)


# --- small-mixed ------------------------------------------------------------


def three_strand_words() -> list[tuple[int, ...]]:
    """Every 3-strand word of at most 6 letters, in the order of criterion 07."""
    return [
        letters
        for length in range(7)
        for letters in itertools.product((1, -1, 2, -2), repeat=length)
    ]


def _seeded_braids(rng: random.Random) -> list[tuple[int, tuple[int, ...]]]:
    """SMALL_SEEDED_BRAIDS braids spread evenly over 2..4 strands and 0..8
    letters, so that every pass costs about the same whatever the seed."""
    shapes = [(n, length) for n in range(2, 5) for length in range(9)]
    return [
        (n, _random_word(rng, n, length))
        for n, length in (shapes[i % len(shapes)] for i in range(SMALL_SEEDED_BRAIDS))
    ]


def _small_mixed_pass(rng: random.Random) -> list[dict]:
    words = three_strand_words()
    items = []
    for index, letters in enumerate(words):
        argv = ["bracket", "--strands", "3", "--word", _word_text(letters)]
        items.append(_cli(argv, {"ref": "words3", "index": index}))
    order = list(range(len(words)))
    rng.shuffle(order)
    for start in range(0, len(order), TRACE5_BLOCK):
        block = order[start : start + TRACE5_BLOCK]
        op = {
            "kind": "trace5",
            "words": [_word_text(words[i]) for i in block],
            "thetas": list(TRACE5_THETAS),
            "check": {"ref": "words3", "indices": block},
        }
        items.append(op)
    for strands, letters in _seeded_braids(rng):
        argv = ["bracket", "--check", "--strands", str(strands), "--word", _word_text(letters)]
        check = {"ref": "state-sum", "strands": strands, "word": _word_text(letters)}
        items.append(_cli(argv, check))
    for strands, letters in _seeded_braids(rng):
        op = {
            "kind": "z_amplitude",
            "strands": strands,
            "word": _word_text(letters),
            "check": {"ref": "state-sum", "strands": strands, "word": _word_text(letters)},
        }
        items.append(op)
    items.append(_cli(["verify", "--n", "5"], {"ref": "verify-5"}))
    return _shuffled(items, rng)


# --- qsim -------------------------------------------------------------------


def _theta(rng: random.Random) -> str:
    """An angle in the unitary range |theta| <= pi/6 or |theta - pi| <= pi/6,
    written without an exponent: argparse takes "-4.5e-05" for an option."""
    centre = rng.choice((0.0, math.pi))
    return f"{centre + rng.uniform(-1.0, 1.0) * (math.pi / 6 - 0.01):.17f}"


def _qsim_word(rng: random.Random, length: int) -> str:
    return " ".join(rng.choices(("1", "-1", "2", "-2"), k=length))


def qsim_op(rng: random.Random, length: int) -> dict:
    argv = [
        "qsim",
        "--theta", _theta(rng),
        "--word", _qsim_word(rng, length),
        "--prepare", str(rng.randint(0, 1)),
        "--shots", str(QSIM_SHOTS),
        "--seed", str(rng.randrange(2**31)),
    ]
    return _cli(argv, {"ref": "qsim"})


def _qsim_long_pass(rng: random.Random) -> list[dict]:
    low, high = QSIM_LONG_LENGTHS
    items = []
    for k in range(QSIM_LONG_PER_PASS):
        length = int(low * (high / low) ** ((k + rng.random()) / QSIM_LONG_PER_PASS))
        items.append(qsim_op(rng, length))
    return _shuffled(items, rng)


def _qsim_drift_pass(rng: random.Random) -> list[dict]:
    low, high = QSIM_DRIFT_LENGTHS
    return [qsim_op(rng, rng.randint(low, high)) for _ in range(QSIM_DRIFT_PER_PASS)]


# --- entry points -------------------------------------------------------------


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def ops(workload: str, seed: int, passes: int, refs: dict | None = None):
    """Yield the operations of a run of this many passes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "trace-wide":
        pool = _trace_wide_pool(rng, refs or load_refs())
    for number in range(passes):
        if workload == "trace-wide":
            batch = _trace_wide_pass(rng, pool, number)
        elif workload == "pd-states":
            batch = _pd_states_pass(rng)
        elif workload == "small-mixed":
            batch = _small_mixed_pass(rng)
        elif workload == "qsim-long":
            batch = _qsim_long_pass(rng)
        else:
            batch = _qsim_drift_pass(rng)
        for index, op in enumerate(batch):
            op["id"] = f"{number}.{index}"
            yield op


def warmup_op(workload: str) -> dict:
    """The fixed operation a fresh interpreter runs to measure set-up time."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "trace-wide":
        op = _cli(["jones", "--strands", "6", "--word", _word_text(tuple(range(1, 6)) * 4)], {})
    elif workload == "pd-states":
        op = pd_op(rng, 10)
    elif workload == "small-mixed":
        op = _cli(["bracket", "--strands", "3", "--word", "1 -2 1 2 -1 2"], {})
    else:
        op = qsim_op(rng, 1000)
    op["id"] = "warmup"
    return op
