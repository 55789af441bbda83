"""Idealized quantum computer: unitary evolution plus basis-state sampling.

The machine prepares a basis state, applies a unitary, and observes in the
computational basis; index i is returned with probability equal to the
squared modulus of amplitude i.  Nothing else about the measurement process
is modelled.

Randomness is counter-based so that results are reproducible and independent
of how shots are batched: shot number k of a run with seed s draws the
64-bit word

    x_k = splitmix64(s + (k + 1) * 0x9E3779B97F4A7C15 mod 2^64)

where splitmix64 is the standard 64-bit finalizer (xor-shift/multiply
constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Its top 53 bits give
the uniform u_k = (x_k >> 11) * 2^-53 in [0, 1), and the shot lands in the
first index i with u_k < c_i, where c is the float cumulative sum of the
probabilities (the last index takes every u_k >= c_{d-2}).  Because x_k
depends only on (s, k), splitting a run into batches [0, m) and [m, N) with
the same seed and merging the counts gives byte-identical results to a single
batch of N shots; parallel workers need only their shot offsets.  When a
whole matrix column is estimated, column j uses seed s + j.

The sampler never forms u_k.  For i < d-1 let T_i = min(ceil(c_i * 2^53),
2^53).  The product c_i * 2^53 only scales by a power of two, so it is exact,
and for the integer m = x_k >> 11, which is below 2^53,

    u_k < c_i  <=>  m < c_i * 2^53  <=>  m < T_i  <=>  x_k < T_i * 2^11,

the last step because x_k = m * 2^11 + r with 0 <= r < 2^11.  So the shots at
indices <= i are those with x_k < T_i << 11, counted on the raw words, and
the counts of the indices telescope.  T_i = 2^53 (exactly when c_i >= 1) is
special-cased as "every shot", because T_i << 11 = 2^64 does not fit in a
uint64.  T_i = 0 counts no shot, so when every T_i is 0 or 2^53 the state is
a point mass and no word is drawn.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from ._record import Record, set_field
from .braid import BraidWord, bracket_via_trace
from .errors import InvariantError, SizeLimitError
from .unitary3 import _NORM_TOL, UnitarySetup, _unitarity_excess, rho_unitary

__all__ = [
    "QState",
    "ShotRecord",
    "evolve",
    "sample_shots",
    "estimate_matrix_moduli",
    "short_word_table",
    "PhaseLossWitness",
    "find_phase_loss_witness",
]

#: Shot guard of ``estimate_matrix_moduli``, whose time grows linearly with
#: the shots: ``qsim`` samples two columns, and 10^8 shots each take it 0.9 to
#: 1.0 s, so 2^30 take about 10 s (2-core Intel Xeon).
MAX_SHOTS = 1 << 30

#: Shots drawn per chunk.  A chunk's draws and their scratch array (256 KiB
#: each) stay in L2 cache while every threshold is counted against them; a
#: 10^6-shot column takes 31 chunks.
_SHOT_CHUNK = 1 << 15

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
#: splitmix64's finalizer: x ^= x >> shift, then x *= mix (none after the last).
_FINALIZER = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None))


class QState(Record):
    """A unit vector of complex amplitudes."""

    __slots__ = ("amplitudes",)
    _arrays = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        set_field(self, "amplitudes", np.asarray(amplitudes, dtype=complex))
        norm_sq = float(np.sum(self.probabilities()))
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm^2 = {norm_sq} deviates from 1")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


class ShotRecord(Record):
    __slots__ = ("shots", "counts", "seed")

    def __init__(self, shots: int, counts: tuple[int, ...], seed: int):
        set_field(self, "shots", shots)
        set_field(self, "counts", counts)
        set_field(self, "seed", seed)
        if sum(counts) != shots:
            raise ValueError("counts must sum to the shot total")

    def merge(self, other: "ShotRecord") -> "ShotRecord":
        if other.seed != self.seed or len(other.counts) != len(self.counts):
            raise ValueError("can only merge batches of the same run")
        return ShotRecord(
            self.shots + other.shots,
            tuple(a + b for a, b in zip(self.counts, other.counts)),
            self.seed,
        )


def evolve(j: int, unitary: np.ndarray) -> QState:
    """Apply a unitary to the basis state |j>; the result is column j."""
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be a square matrix")
    if (deviation := _unitarity_excess(u)) is not None:
        raise ValueError(f"operator is not unitary: max |U*U - I| = {deviation:.3e}")
    if not 0 <= j < u.shape[0]:
        raise ValueError(f"basis index {j} out of range for dimension {u.shape[0]}")
    return QState(u[:, j].copy())


def _draw_chunks(seed: int, first_shot: int, shots: int):
    """Yield the words x_k of shots first_shot.. first_shot + shots - 1 in
    chunks of at most _SHOT_CHUNK; each chunk overwrites the one before.

    Every product and sum below is uint64 array arithmetic, which wraps
    modulo 2^64 without a warning, so no ``np.errstate`` is needed.
    """
    size = min(_SHOT_CHUNK, shots)
    # Shot k's counter is base + (k - start) * golden: one table of steps
    # serves every chunk.
    steps = np.arange(size, dtype=np.uint64) * _GOLDEN
    words = np.empty(size, dtype=np.uint64)
    scratch = np.empty(size, dtype=np.uint64)
    end = first_shot + shots
    for start in range(first_shot, end, _SHOT_CHUNK):
        n = min(_SHOT_CHUNK, end - start)
        x, tmp = words[:n], scratch[:n]
        base = (seed + (start + 1) * int(_GOLDEN)) & _MASK
        np.add(steps[:n], np.uint64(base), out=x)
        for shift, mix in _FINALIZER:
            np.right_shift(x, shift, out=tmp)
            x ^= tmp
            if mix is not None:
                x *= mix
        yield x


def sample_shots(state: QState, shots: int, seed: int, first_shot: int = 0) -> ShotRecord:
    """Draw i.i.d. basis-index observations from the state's distribution.

    Identical (state, shots, seed) give identical counts.  ``first_shot``
    positions a batch inside a larger run: concatenated batches reproduce the
    single-batch counts exactly.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if first_shot < 0 or first_shot + shots > 2**64:
        raise ValueError(f"shots {first_shot}..{first_shot + shots - 1} leave the range 0..2^64-1")
    # Word limits T_i << 11 of the module docstring; None stands for 2^64.
    limits = []
    for c in np.cumsum(state.probabilities())[:-1]:
        threshold = math.ceil(float(c) * 2.0**53)
        limits.append(None if threshold >= 2**53 else np.uint64(threshold << 11))
    # Shots with index <= i; limits None and 0 fix theirs, so a point mass
    # draws nothing.
    at_most = [shots if limit is None else 0 for limit in limits]
    drawn = [(i, limit) for i, limit in enumerate(limits) if limit]
    if drawn:
        below = np.empty(min(_SHOT_CHUNK, shots), dtype=bool)
        for x in _draw_chunks(seed, first_shot, shots):
            hits = below[: len(x)]
            for i, limit in drawn:
                at_most[i] += int(np.count_nonzero(np.less(x, limit, out=hits)))
    edges = [0, *at_most, shots]
    counts = tuple(high - low for low, high in zip(edges, edges[1:]))
    return ShotRecord(shots, counts, seed)


def estimate_matrix_moduli(
    b: BraidWord, setup: UnitarySetup, shots: int, seed: int
) -> list[list[tuple[float, float]]]:
    """Shot estimates of every |<i|rho(b)|j>|^2 next to the exact values.

    Entry [i][j] pairs the estimated probability of observing |i> after
    preparing |j> with the exact squared modulus.  Column j is sampled with
    seed + j.  Raises InvariantError when rho(b) fails evolve's unitarity
    check: the product is braidket's own, so its drift is a bug, not bad input.
    Raises SizeLimitError, before any work, for more than MAX_SHOTS shots.
    """
    if shots > MAX_SHOTS:
        raise SizeLimitError(f"{shots} shots exceeds the {MAX_SHOTS}-shot guard")
    rho = rho_unitary(b, setup)
    dim = rho.shape[0]
    exact = np.abs(rho) ** 2
    estimates = np.zeros((dim, dim))
    for j in range(dim):
        try:
            column = evolve(j, rho)
        except ValueError as exc:
            raise InvariantError(f"rho of a {len(b.letters)}-letter word: {exc}") from exc
        record = sample_shots(column, shots, seed + j)
        estimates[:, j] = np.asarray(record.counts) / shots
    return [
        [(float(estimates[i, j]), float(exact[i, j])) for j in range(dim)]
        for i in range(dim)
    ]


_LETTERS = (1, -1, 2, -2)


def short_word_table(
    setup: UnitarySetup, max_length: int
) -> tuple[list[BraidWord], np.ndarray, np.ndarray]:
    """Every 3-braid word of 1..max_length letters, in length then
    lexicographic order over (1, -1, 2, -2), with its flattened
    |<i|rho(b)|j>|^2 row and its exact bracket evaluated at A = setup.a.
    """
    words = [
        BraidWord(3, letters)
        for length in range(1, max_length + 1)
        for letters in product(_LETTERS, repeat=length)
    ]
    moduli = np.array([np.abs(rho_unitary(w, setup)) ** 2 for w in words]).reshape(-1, 4)
    values = np.array([bracket_via_trace(w).evaluate(setup.a) for w in words], dtype=complex)
    return words, moduli, values


class PhaseLossWitness(Record):
    """Two braid words the sampler cannot tell apart but the bracket can."""

    __slots__ = ("word_a", "word_b", "moduli_gap", "bracket_gap", "bracket_a", "bracket_b")

    def __init__(self, word_a, word_b, moduli_gap, bracket_gap, bracket_a, bracket_b):
        set_field(self, "word_a", word_a)
        set_field(self, "word_b", word_b)
        set_field(self, "moduli_gap", moduli_gap)
        set_field(self, "bracket_gap", bracket_gap)
        set_field(self, "bracket_a", bracket_a)
        set_field(self, "bracket_b", bracket_b)


def find_phase_loss_witness(
    setup: UnitarySetup,
    max_length: int = 4,
    moduli_tol: float = 1e-12,
    bracket_tol: float = 1e-6,
) -> PhaseLossWitness | None:
    """Search short 3-braid words for a pair with equal moduli matrices but
    different exact brackets.

    Such a pair shows that estimating the |<i|rho(b)|j>|^2 alone loses the
    phase information the bracket polynomial depends on.
    """
    words, moduli, values = short_word_table(setup, max_length)
    for i in range(len(words)):
        mod_gap = np.max(np.abs(moduli[i + 1 :] - moduli[i]), axis=1)
        val_gap = np.abs(values[i + 1 :] - values[i])
        hits = np.nonzero((mod_gap <= moduli_tol) & (val_gap > bracket_tol))[0]
        if hits.size:
            j = i + 1 + int(hits[0])
            return PhaseLossWitness(
                words[i],
                words[j],
                float(mod_gap[hits[0]]),
                float(val_gap[hits[0]]),
                complex(values[i]),
                complex(values[j]),
            )
    return None
