"""Unitary two-dimensional representation of the three-strand braid group.

At A = e^(i*theta) the loop value is delta = -2*cos(2*theta); whenever
delta^2 >= 1 the two real symmetric matrices

    U1 = [[delta, 0], [0, 0]]
    U2 = [[1/delta, sqrt(1 - 1/delta^2)], [sqrt(1 - 1/delta^2), delta - 1/delta]]

satisfy the TL relations, and rho(sigma_i) = A*I + A^-1*U_i is unitary.
Since delta^2 >= 1 means |cos 2*theta| >= 1/2, that holds exactly when theta
lies within pi/6 of a multiple of pi/2: |theta - k*pi/2| <= pi/6 for some
integer k.  The bracket of a 3-braid closure comes straight from the trace:

    <closure(b)> = tr(rho(b)) + A^E * (delta^2 - 2)

where E is the exponent sum of the word.

rho(b) is a float product of L letter factors.  One numpy product per letter
spends nearly all its time in call overhead, so the letters go in blocks of
_BLOCK: a block's factors are gathered into one stack and halved by batched
products until one matrix is left, and the block products are folded left to
right.  Every block but the last is full, so their stacks are gathered, up
to _GROUP blocks at a time, into one (blocks, _BLOCK/4, 2, 2) stack and
halved together: each 2x2 product is still its own BLAS zgemm call on the
same two matrices, so the bits are those of halving block by block.  The
order does not reduce rounding, as L - 1 products round L - 1 times in any
order (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3).
What made long words drift off U(2) was the factors: each is off U(2) by
about 1e-16, the same way at every occurrence, so the distance of their
product from U(2) grows like L and passed 1e-10 near 2*10^6 letters.  From
the second block on, the running product X is therefore re-projected onto
U(2) by one Newton step towards its unitary polar factor,
X <- (X + X^-H) / 2, which squares its distance from U(2).  The step is
guarded: X must first pass the unitarity bound _NORM_TOL of qsim.evolve, so
a wrong factor raises InvariantError instead of being projected away.  Words
of at most _BLOCK letters are one block and are never projected.

A block does not start from its single letters.  The products of every word
of 1 to 4 letters are built once per angle (UnitarySetup.tables), so a block
of 4q + r letters starts from q four-letter products and, when r > 0, one
r-letter product.  Each entry is bracketed as the first two halvings bracket
its letters, (f f)(f f), or (f f) f for three left over, and comes from the
same numpy matmul of the same float factors.  The stack after the lookup is
therefore the stack after those two halvings, bit for bit, and so is rho(b);
the lookup saves three quarters of the 2x2 products.

A block of k <= 8 letters, which is every word the trace formula is run on
in bulk, goes without numpy's index arithmetic: the table indices of its
first four letters (head) and of the rest (tail) are computed in Python, and
the block is tables[k-1][head], copied, or tables[3][head] @ tables[k-5][tail].
That is the halving's product too: its stack is then those two entries, and
halving a stack of two is one matmul of the same two matrices, through the
same BLAS zgemm call, so the bits are the same.  For such words numpy's
per-call overhead costs more than the one 2x2 product.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .braid import BraidWord, exponent_sum
from .errors import InvalidAngleError, InvariantError

__all__ = ["UnitarySetup", "unitary_generators", "rho_unitary", "bracket_from_trace"]

_DEGENERACY_TOL = 1e-12

#: Largest max |U*U - I| a unitary may show, here and in qsim.evolve.
_NORM_TOL = 1e-10


def _unitarity_excess(u: np.ndarray) -> float | None:
    """max |U*U - I| of u when it exceeds _NORM_TOL or is NaN, else None."""
    deviation = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    return None if deviation <= _NORM_TOL else deviation


#: Letters multiplied pairwise before the running product takes them in.  A
#: block's four-letter products take 16 KiB.  The moduli of an unprojected
#: 1,024-letter product were within 3e-14 of the exact product of its float
#: factors; at 4,096 letters they were off by up to 1.1e-13.
_BLOCK = 1 << 10

#: Full blocks halved as one stack, so a word's table entries take at most
#: 512 KiB at a time.  A word of up to 33,792 letters, such as the
#: 32,000-letter words of the benchmark's qsim-long workload, is one group.
_GROUP = 32

#: Row of UnitarySetup.factors for letter g, at g + 2, and the same map as an
#: array for blocks of more than 8 letters.  No letter is 0, so its entry is
#: out of range.
_ROW = (3, 1, 4, 0, 2)
_FACTOR_ROW = np.array(_ROW)

#: Place values of the base-4 digits of a table index, last letter lowest.
_DIGITS = np.array([64, 16, 4, 1])


def _table_index(letters: tuple[int, ...]) -> int:
    """Index of the product of 1 to 4 letters in UnitarySetup.tables."""
    index = 0
    for g in letters:
        index = 4 * index + _ROW[g + 2]
    return index


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[i] @ right[j] for every i and j, at index i * len(right) + j."""
    return np.repeat(left, len(right), axis=0) @ np.tile(right, (len(left), 1, 1))


@dataclass(frozen=True)
class UnitarySetup:
    theta: float
    a: complex  # e^(i*theta), the numeric value substituted for A
    delta: float
    u1: np.ndarray
    u2: np.ndarray
    #: rho(sigma_1), rho(sigma_1^-1), rho(sigma_2), rho(sigma_2^-1), stacked.
    factors: np.ndarray
    #: tables[k-1] holds rho of every word of k = 1..4 letters, at the index
    #: whose base-4 digits are the letters' rows of ``factors``, bracketed as
    #: _pairwise_product brackets them: f f, (f f) f and (f f)(f f).
    tables: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pairs = _products(self.factors, self.factors)
        tables = (self.factors, pairs, _products(pairs, self.factors), _products(pairs, pairs))
        for table in tables:
            table.flags.writeable = False
        object.__setattr__(self, "tables", tables)


@lru_cache(maxsize=64)
def unitary_generators(theta: float) -> UnitarySetup:
    """Build the numeric TL generators and letter factors at angle theta.

    Raises InvalidAngleError when theta is not finite, or when delta^2 < 1,
    where the off-diagonal entry sqrt(1 - 1/delta^2) would be imaginary.
    Boundary angles with delta^2 = 1 are accepted (the off-diagonal entry
    degenerates to zero).

    Setups are cached by angle, so their arrays are read-only.  0, 0.0 and
    -0.0 share one entry: their arrays and ``a`` are byte-identical, and only
    the ``theta`` field keeps the first caller's spelling.
    """
    if not math.isfinite(theta):
        raise InvalidAngleError(f"theta = {theta} is not finite")
    twice = 2.0 * theta
    # 2*theta overflows for |theta| >= 2^1023, where math.cos, which reduces
    # theta itself exactly, still gives cos 2*theta as 2*cos(theta)^2 - 1.
    cos_twice = math.cos(twice) if math.isfinite(twice) else 2.0 * math.cos(theta) ** 2 - 1.0
    delta = -2.0 * cos_twice
    if delta * delta < 1.0 - _DEGENERACY_TOL:
        raise InvalidAngleError(
            f"delta^2 = {delta * delta:.6f} < 1 at theta = {theta}; "
            "valid angles lie within pi/6 of a multiple of pi/2: "
            "|theta - k*pi/2| <= pi/6 for some integer k"
        )
    inv = 1.0 / delta
    b_sq = max(0.0, 1.0 - inv * inv)
    b = math.sqrt(b_sq)
    u1 = np.array([[delta, 0.0], [0.0, 0.0]])
    u2 = np.array([[inv, b], [b, delta - inv]])
    a = cmath.exp(1j * theta)
    identity = np.eye(2, dtype=complex)
    factors = np.array(
        [a * identity + u1 / a, identity / a + a * u1, a * identity + u2 / a, identity / a + a * u2]
    )
    for array in (u1, u2):
        array.flags.writeable = False
    return UnitarySetup(theta, a, delta, u1, u2, factors)


def _pairwise_product(stack: np.ndarray) -> np.ndarray:
    """stack[..., 0, :, :] @ ... @ stack[..., -1, :, :], by halving the axis
    of the factors: one product per stack of (..., k, 2, 2) factors.
    """
    while (k := stack.shape[-3]) > 1:
        pairs = stack[..., 0 : k - 1 : 2, :, :] @ stack[..., 1::2, :, :]
        stack = np.concatenate((pairs, stack[..., -1:, :, :]), axis=-3) if k % 2 else pairs
    return stack[..., 0, :, :]


def _block_stack(
    letters: Iterable[int], setup: UnitarySetup, blocks: int, size: int
) -> np.ndarray:
    """The (blocks, k, 2, 2) stack of table entries that starts the halving
    of each of the first ``blocks`` blocks of ``size`` letters, which are
    taken from ``letters`` and no more.
    """
    rows = _FACTOR_ROW[np.fromiter(letters, np.intp, blocks * size) + 2].reshape(blocks, size)
    whole = size - size % 4
    stack = setup.tables[3][rows[:, :whole].reshape(blocks, whole // 4, 4) @ _DIGITS]
    if whole < size:
        rest = setup.tables[size - whole - 1][rows[:, whole:] @ _DIGITS[whole - size :]]
        stack = np.concatenate((stack, rest[:, None]), axis=1)
    return stack


def _polar_step(x: np.ndarray, letters: int) -> np.ndarray:
    """One Newton step (X + X^-H) / 2 from x towards U(2), once x passes
    the unitarity bound; ``letters`` is the length x is the product of.
    """
    if (deviation := _unitarity_excess(x)) is not None:
        raise InvariantError(
            f"rho of the first {letters} letters is not unitary: "
            f"max |U*U - I| = {deviation:.3e}"
        )
    (p, q), (r, s) = x
    inverse_h = np.array([[s, -r], [-q, p]]).conj() / (p * s - q * r).conjugate()
    return (x + inverse_h) / 2


def rho_unitary(b: BraidWord, setup: UnitarySetup) -> np.ndarray:
    """Unitary image of a 3-strand braid word: factors A*I + A^-1*U_i,
    multiplied pairwise in blocks (see the module docstring).
    """
    if b.strands != 3:
        raise ValueError(f"unitary representation needs 3 strands, got {b.strands}")
    letters = b.letters
    if not letters:
        return np.eye(2, dtype=complex)
    # Every block but the last is full, and they are halved _GROUP at a time,
    # each group's letters read on from where the last group's ended.
    full = (len(letters) - 1) // _BLOCK
    block_products = []
    ahead = iter(letters)
    for done in range(0, full, _GROUP):
        stack = _block_stack(ahead, setup, min(_GROUP, full - done), _BLOCK)
        block_products.extend(_pairwise_product(stack))
    block = letters[full * _BLOCK :]
    if len(block) <= 4:  # one lookup, copied out of the cached table
        block_products.append(setup.tables[len(block) - 1][_table_index(block)].copy())
    elif len(block) <= 8:  # two lookups and the product the halving makes of them
        head = setup.tables[3][_table_index(block[:4])]
        block_products.append(head @ setup.tables[len(block) - 5][_table_index(block[4:])])
    else:
        block_products.append(_pairwise_product(_block_stack(block, setup, 1, len(block)))[0])
    product = block_products[0]
    for count, block_product in enumerate(block_products[1:], start=2):
        product = _polar_step(product @ block_product, min(count * _BLOCK, len(letters)))
    return product


def bracket_from_trace(b: BraidWord, setup: UnitarySetup) -> complex:
    """Numeric bracket of the 3-braid closure from the representation trace."""
    rho = rho_unitary(b, setup)
    return complex(rho[0, 0] + rho[1, 1]) + setup.a ** exponent_sum(b) * (
        setup.delta**2 - 2.0
    )
