"""Braid words, their Temperley-Lieb images, and bracket evaluation by trace.

A braid word on n strands is a sequence of nonzero integers g with
1 <= |g| <= n-1; positive g means the Artin generator sigma_|g|, negative its
inverse.  The representation used throughout is

    rho(sigma_i)    = A * 1 + A^-1 * U_i
    rho(sigma_i^-1) = A^-1 * 1 + A * U_i

which makes the two images inverse to each other in TL_n.  The bracket of the
standard closure is recovered from the Markov trace: TR(rho(b)) equals
delta * <closure(b)>, and the division by delta is performed exactly, so the
identity itself acts as a runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce

from ._uf import DisjointSet
from .diagram import Crossing, LinkDiagram
from .errors import InvariantError, ParseError
from .laurent import A, A_INV, DELTA, LaurentPoly
from .tl import TLElement, generator_diagram, markov_trace, multiply

__all__ = [
    "BraidWord",
    "parse_braid",
    "exponent_sum",
    "represent",
    "exact_factor",
    "rho_tl",
    "bracket_via_trace",
    "closure_to_diagram",
]


@dataclass(frozen=True, slots=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be at least 1")
        for g in self.letters:
            if g == 0 or abs(g) > self.strands - 1:
                raise ValueError(
                    f"letter {g} invalid for {self.strands} strands "
                    f"(need 1 <= |letter| <= {self.strands - 1})"
                )

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.letters)


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices into a BraidWord."""
    if strands < 1:
        raise ParseError("strand count must be at least 1")
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        try:
            g = int(token)
        except ValueError:
            raise ParseError(f"token {pos}: {token!r} is not an integer") from None
        if g == 0:
            raise ParseError(f"token {pos}: generator index must be nonzero")
        if abs(g) > strands - 1:
            raise ParseError(
                f"token {pos}: generator {g} out of range "
                f"(max index is {strands - 1} for {strands} strands)"
            )
        letters.append(g)
    return BraidWord(strands, tuple(letters))


def exponent_sum(b: BraidWord) -> int:
    """Sum of letter signs; equals the writhe of the standard closure."""
    return sum(1 if g > 0 else -1 for g in b.letters)


def represent(letters: tuple[int, ...], one, factor, mul):
    """The product one * factor(g_1) * ... * factor(g_k), left to right.

    Every representation of a braid word is this fold; ``mul`` is the
    representation's product.  Each distinct letter's factor is built once
    per call.
    """
    factors = {g: factor(g) for g in set(letters)}
    return reduce(mul, (factors[g] for g in letters), one)


def exact_factor(identity, u, g: int):
    """Exact image of one letter: A*1 + A^-1*U for g > 0, A^-1*1 + A*U for g < 0.

    ``identity`` and ``u`` are 1 and U_|g| of any exact representation whose
    elements have ``scale`` and ``+``.
    """
    a, a_inv = (A, A_INV) if g > 0 else (A_INV, A)
    return identity.scale(a) + u.scale(a_inv)


@lru_cache(maxsize=None)
def _letter_factor(n: int, g: int) -> TLElement:
    u = TLElement.from_diagram(generator_diagram(n, abs(g)))
    return exact_factor(TLElement.identity(n), u, g)


def rho_tl(b: BraidWord) -> TLElement:
    """Image of the braid word in TL_n."""
    n = b.strands
    return represent(b.letters, TLElement.identity(n), partial(_letter_factor, n), multiply)


def bracket_via_trace(b: BraidWord) -> LaurentPoly:
    """Bracket polynomial of the standard closure, via the Markov trace.

    TR(rho(b)) is always divisible by delta; the quotient is the bracket.
    A remainder or a nonzero imaginary coefficient signals a bug.
    """
    trace = markov_trace(rho_tl(b))
    bracket = trace.divexact(DELTA)
    if not bracket.is_real:
        raise InvariantError(f"bracket has nonzero imaginary part: {bracket}")
    return bracket


def closure_to_diagram(b: BraidWord) -> LinkDiagram:
    """PD-style diagram of the standard braid closure.

    One crossing per letter, sign equal to the letter sign.  Slot order is
    counterclockwise starting from an under-strand slot; for a positive
    letter the strand entering at the top-left passes under, so the slots
    read (left-in, left-out, right-out, right-in), while a negative letter
    has the top-right strand passing under and slots
    (right-in, left-in, left-out, right-out).  With the A-smoothing joining
    slots 0-1 and 2-3, these choices make the state sum of the closure agree
    with the Markov-trace bracket.
    """
    n = b.strands
    current = list(range(n))
    next_label = n
    raw: list[tuple[tuple[int, int, int, int], int]] = []
    for g in b.letters:
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

    # Close up: the final arc at each strand position is the initial one.
    ds = DisjointSet(next_label)
    for k in range(n):
        ds.union(k, current[k])
    crossings = tuple(
        Crossing(tuple(ds.find(s) for s in slots), sign) for slots, sign in raw
    )
    free_loops = sum(1 for k in range(n) if current[k] == k)
    return LinkDiagram(crossings, free_loops)
