"""Idealized quantum computer: unitary evolution plus basis-state sampling.

The machine prepares a basis state, applies a unitary, and observes in the
computational basis; index i is returned with probability equal to the
squared modulus of amplitude i.  Nothing else about the measurement process
is modelled.

Randomness is counter-based so that results are reproducible and independent
of how shots are batched: shot number k of a run with seed s draws the
uniform number

    u_k = splitmix64(s + (k + 1) * 0x9E3779B97F4A7C15) / 2^64-ish

where splitmix64 is the standard 64-bit finalizer (xor-shift/multiply
constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) and the top 53 bits form
a float in [0, 1).  Because u_k depends only on (s, k), splitting a run into
batches [0, m) and [m, N) with the same seed and merging the counts gives
byte-identical results to a single batch of N shots; parallel workers need
only their shot offsets.  When a whole matrix column is estimated, column j
uses seed s + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .braid import BraidWord, bracket_via_trace
from .unitary3 import UnitarySetup, rho_unitary

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

_NORM_TOL = 1e-10

#: Shots drawn per chunk, so memory stays bounded at any shot count; one
#: chunk still covers a 10^6-shot column.
_SHOT_CHUNK = 1 << 20

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class QState:
    """A unit vector of complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm^2 = {norm_sq} deviates from 1")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class ShotRecord:
    shots: int
    counts: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if sum(self.counts) != self.shots:
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
    deviation = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not deviation <= _NORM_TOL:  # NaN fails too
        raise ValueError(f"operator is not unitary: max |U*U - I| = {deviation:.3e}")
    if not 0 <= j < u.shape[0]:
        raise ValueError(f"basis index {j} out of range for dimension {u.shape[0]}")
    return QState(u[:, j].copy())


def _uniforms(seed: int, first_shot: int, count: int) -> np.ndarray:
    """Counter-based uniforms in [0, 1); shot k depends only on (seed, k)."""
    idx = np.arange(first_shot, first_shot + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed & _MASK) + (idx + np.uint64(1)) * _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * (2.0**-53)


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
    cumulative = np.cumsum(state.probabilities())
    counts = np.zeros(state.dim, dtype=np.int64)
    end = first_shot + shots
    # Chunks are batches of this run, so their counts add up to one draw's.
    for start in range(first_shot, end, _SHOT_CHUNK):
        draws = _uniforms(seed, start, min(_SHOT_CHUNK, end - start))
        indices = np.minimum(
            np.searchsorted(cumulative, draws, side="right"), state.dim - 1
        )
        counts += np.bincount(indices, minlength=state.dim)
    return ShotRecord(shots, tuple(int(c) for c in counts), seed)


def estimate_matrix_moduli(
    b: BraidWord, setup: UnitarySetup, shots: int, seed: int
) -> list[list[tuple[float, float]]]:
    """Shot estimates of every |<i|rho(b)|j>|^2 next to the exact values.

    Entry [i][j] pairs the estimated probability of observing |i> after
    preparing |j> with the exact squared modulus.  Column j is sampled with
    seed + j.
    """
    rho = rho_unitary(b, setup)
    dim = rho.shape[0]
    exact = np.abs(rho) ** 2
    estimates = np.zeros((dim, dim))
    for j in range(dim):
        record = sample_shots(evolve(j, rho), shots, seed + j)
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


@dataclass(frozen=True)
class PhaseLossWitness:
    """Two braid words the sampler cannot tell apart but the bracket can."""

    word_a: BraidWord
    word_b: BraidWord
    moduli_gap: float
    bracket_gap: float
    bracket_a: complex
    bracket_b: complex


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
