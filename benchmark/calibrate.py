"""Machine-speed calibration, so that timings from a shared machine compare.

On a machine shared with other work the same operation can take up to
twice as long for seconds or minutes at a time.  The worker therefore times
fixed calibration loops, which call no braidket code, every ``EVERY_S``
seconds of the run, and each operation's latency is scaled by a loop's
nominal time over its median time around the operation, once the run is
over: the reported times are those of a machine on which the loop takes
exactly its nominal time.  The loops and nominal times are fixed, so scaled times from
different commits compare; raw times are printed next to them.

There are three loops, because a slow spell does not slow all work alike:
a pure-Python loop that allocates small dicts, tuples and big ints, a loop of
Gaussian-integer polynomial products written as ``laurent`` writes them, and
a numpy loop of 2x2 products and a vectorised hash for the unitary
simulator.  Each workload names a loop for ops_per_s and one for the latency
percentiles (``gen.CALIBRATION``); they differ only for trace-wide.  Of four
pure-Python loops tried on the Python workloads (a small dict, a 200,000-key
dict, big-int products, allocation), allocation tracked them best: over six
runs in a spell when raw times spread by 25 to 40 %, scaled ops_per_s
spread by 3 to 4 %, against 5 to 10 % for a small-dict loop.  On trace-wide,
ten seeds scaled by allocation gave spreads of 4 % in ops_per_s, which its
few operations of 0.5 to 2 s dominate, but 11 and 13 % in the median and
tail, which its many light operations set; scaled by the Gaussian loop they
gave 12 %, 5 % and 7 %.
"""

from __future__ import annotations

import bisect
import json
import statistics
from time import perf_counter

EVERY_S = 0.05
#: Calibration samples within this many seconds of an operation scale it.
WINDOW_S = 0.5


def python_loop() -> float:
    start = perf_counter()
    kept = []
    for i in range(1500):
        kept.append({(i, i + 1): (i * 12345678901234567, -i)})
    return perf_counter() - start


def numpy_loop() -> float:
    import numpy as np

    start = perf_counter()
    eye = np.eye(2, dtype=complex)
    step = 0.3 * eye + np.array([[0.5, 0.2], [0.2, 0.1]]) / 0.7
    product = eye
    for _ in range(150):
        product = product @ step
    x = np.arange(200_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    np.searchsorted(np.linspace(0.0, 1.0, 4), (x >> np.uint64(11)).astype(np.float64) * 2.0**-53)
    return perf_counter() - start


class _Gaussian:
    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re, self.im = re, im

    def __add__(self, other):
        return _Gaussian(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return _Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0


_ZERO = _Gaussian(0, 0)
_LEFT = {e: _Gaussian(7 * e - 3, e % 5) for e in range(-10, 12, 2)}
_RIGHT = {e: _Gaussian(e % 3 + 1, -e) for e in range(-8, 14, 2)}


def gaussian_loop() -> float:
    """Products of two Laurent polynomials with Gaussian-integer
    coefficients, written out as ``laurent.LaurentPoly.__mul__`` does them."""
    start = perf_counter()
    for _ in range(3):
        out: dict = {}
        for e1, c1 in _LEFT.items():
            for e2, c2 in _RIGHT.items():
                value = out.get(e1 + e2, _ZERO) + c1 * c2
                if value:
                    out[e1 + e2] = value
                else:
                    out.pop(e1 + e2, None)
    return perf_counter() - start


#: loop name -> (loop, nominal seconds)
LOOPS = {"python": (python_loop, 0.0008), "gaussian": (gaussian_loop, 0.0004), "numpy": (numpy_loop, 0.004)}


class Samples:
    """(time, loop seconds) pairs taken during a run, for each named loop."""

    def __init__(self, loops):
        self.points: dict[str, list[tuple[float, float]]] = {name: [] for name in dict.fromkeys(loops)}
        self.last = 0.0
        self.sample()

    def sample(self) -> None:
        self.last = perf_counter()
        for name, points in self.points.items():
            points.append((perf_counter(), LOOPS[name][0]()))

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= EVERY_S:
            self.sample()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.points, handle)


def scale_factors(loop: str, points: list, spans: list[tuple[float, float]]) -> list[float]:
    """The loop's nominal time over its median time near each (start, end)
    span: the samples within WINDOW_S of it, widened to at least five on
    each side."""
    nominal = LOOPS[loop][1]
    points = sorted(points)
    times = [t for t, _ in points]
    factors = []
    for start, end in spans:
        low = min(bisect.bisect_left(times, start - WINDOW_S), max(0, bisect.bisect_left(times, start) - 5))
        high = max(bisect.bisect_right(times, end + WINDOW_S), bisect.bisect_right(times, end) + 5)
        factors.append(nominal / statistics.median(d for _, d in points[low:high]))
    return factors
