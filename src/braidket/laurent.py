"""Exact Laurent-polynomial arithmetic in the variable A over Z.

Every coefficient is an ``int``.  The cup/cap matrix of ``matrixrep`` is i
times an integer matrix, and each value built from it takes its entries in
pairs, so no evaluation path needs a complex coefficient.

Canonical text form: terms in strictly descending exponent order, coefficient
1 elided unless the exponent is 0, and ``A^0`` rendered as a bare integer.
Example::

    -A^5 - A^-3 + A^-7

JSON form: a list of ``[exponent, real, imag]`` triples in descending
exponent order; ``imag`` is always 0.

Packed form, shared by the Temperley-Lieb fold in ``braid``, the PD
contraction in ``diagram`` and the tensor product in ``matrixrep``: a
polynomial in B = A^2 with nonnegative exponents as one int, its value at
B = 2^bits.  Its rules live here:

- Shifts and adds keep that value exact whatever the digits do.
- ``_times_delta`` multiplies by a closed loop, delta = -B^-1 (1 + B^2), as
  ``-((y + (y << 2*bits)) >> bits)``, exact when y has no constant term.
- ``_over_delta`` divides by delta as one exact ``divmod`` by 1 + 2^(2 bits)
  and a one-digit shift, when the digits' absolute values sum to below
  2^(bits-1).
- ``_pack`` writes a polynomial in this form.  The product of two packs is
  the pack of the product polynomial, which ``_unpack`` reads back while
  every digit of it stays below 2^(bits-1) in absolute value.
- ``_unpack`` and ``_widen`` need every digit below 2^(bits-1) in absolute
  value.  ``_unpack`` first moves the common low zero digits into the
  exponent: their count is the trailing zero bits divided by ``bits``.  A
  pack of at most 8,192 bits it then reads a digit at a time, each the
  signed residue of the low ``bits`` bits, subtracted before the shift to
  the next.  A longer one it reads as ``_widen`` does: adding 2^(bits-1) to
  every digit makes each an unsigned field of ``bits`` characters in the
  binary text of the sum, which takes time linear in the digits.
- ``_room`` checks that bound as a computation goes, for a caller that starts
  at a width narrower than its proven one (``_TRIAL_BITS`` beyond the bits
  it multiplies in at the end) and widens with ``_widen`` when room runs out.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from functools import lru_cache

from .errors import ExactDivisionError


class LaurentPoly:
    """Canonical Laurent polynomial: a map exponent -> nonzero coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms = {e: c for e, c in (terms or {}).items() if c}

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def terms(self) -> list[tuple[int, int]]:
        """Terms in descending exponent order."""
        # Exponents are unique, so the pairs sort by exponent alone.
        return sorted(self._terms.items(), reverse=True)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self._terms)

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _as_poly(other)
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _as_poly(other)
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are not defined for general polynomials")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/divisor in the Laurent ring.

        Raises ExactDivisionError when the division leaves a remainder.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        lead_exp = divisor.max_exponent()
        lead = divisor.coefficient(lead_exp)
        min_quot = self.min_exponent() - divisor.min_exponent()
        rem = dict(self._terms)
        quot: dict[int, int] = {}
        while rem:
            top = max(rem)
            t_exp = top - lead_exp
            if t_exp < min_quot:
                raise ExactDivisionError("Laurent division left a remainder")
            t_coeff, left = divmod(rem[top], lead)
            if left:
                raise ExactDivisionError(f"{rem[top]} not divisible by {lead}")
            quot[t_exp] = t_coeff
            for e, c in divisor._terms.items():
                e2 = e + t_exp
                s = rem.get(e2, 0) - t_coeff * c
                if s:
                    rem[e2] = s
                else:
                    rem.pop(e2, None)
        return LaurentPoly(quot)

    def invert_variable(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (negate every exponent)."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    # -- evaluation ------------------------------------------------------

    def evaluate(self, a: complex) -> complex:
        """Numeric value at A = a (a != 0; negative exponents occur)."""
        if a == 0:
            raise ValueError("cannot evaluate at A = 0: negative exponents")
        return sum((complex(c) * a**e for e, c in self._terms.items()), 0j)

    # -- equality / rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals the coefficient it holds (see __eq__), so it
        # must hash like that coefficient.
        if self._terms.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return _render_terms(self.terms(), lambda exp: f"A^{exp}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def to_json(self) -> list[list[int]]:
        return [[e, c, 0] for e, c in self.terms()]


def _ones(bits: int, count: int) -> int:
    """A 1 in each of ``count`` digits of ``bits`` bits."""
    ones, have = 1, 1
    while have < count:
        ones |= ones << bits * have
        have *= 2
    return ones & ((1 << bits * count) - 1)


def _offset_text(packed: int, bits: int) -> str:
    """Binary text of ``packed`` plus 2^(bits-1) in every digit, ``bits``
    characters a digit and the top one first; it holds every nonzero digit."""
    count = packed.bit_length() // bits + 1
    return format(packed + (_ones(bits, count) << (bits - 1)), f"0{bits * count}b")


def _pack(poly: LaurentPoly, bits: int, low: int) -> int:
    """``sum c_j 2^(bits*j)`` for ``poly = sum c_j A^(low + 2j)``, ``_unpack``'s
    inverse; every exponent of ``poly`` must be ``low`` plus an even number >= 0."""
    return sum(c << bits * ((e - low) // 2) for e, c in poly._terms.items())


def _unpack(packed: int, bits: int, low: int) -> LaurentPoly:
    """Decode a polynomial in B = A^2 from its packed form (module docstring).

    ``packed = sum c_j 2^(bits*j)`` with signed digits
    ``|c_j| < 2^(bits-1)``; the result is ``sum c_j A^(low + 2j)``.
    """
    terms: dict[int, int] = {}
    if packed:
        # Below the lowest nonzero digit c_k every bit is 0, and c_k has
        # fewer than ``bits`` trailing zero bits, so this counts k exactly.
        zeros = ((packed & -packed).bit_length() - 1) // bits
        packed >>= zeros * bits
        low += 2 * zeros
    full, half = 1 << bits, 1 << (bits - 1)
    # Each step of the loop copies the rest of the pack, so its cost grows
    # with the square of the digit count; up to 128 machine words that is
    # still cheaper than the binary text, which is linear.
    if packed.bit_length() <= 8192:
        while packed:
            digit = packed & (full - 1)
            if digit >= half:
                digit -= full
            if digit:
                terms[low] = digit
            packed = (packed - digit) >> bits
            low += 2
    else:
        text, zero = _offset_text(packed, bits), format(half, "b")
        for start in range(len(text) - bits, -1, -bits):
            digit = text[start : start + bits]
            if digit != zero:
                terms[low] = int(digit, 2) - half
            low += 2
    result = LaurentPoly.__new__(LaurentPoly)
    result._terms = terms
    return result


def _widen(packed: int, bits: int, wider: int) -> int:
    """``sum c_j 2^(wider*j)`` for ``packed = sum c_j 2^(bits*j)``, as ``_unpack`` takes it."""
    text = _offset_text(packed, bits)
    spaced = ("0" * (wider - bits)).join([text[k : k + bits] for k in range(0, len(text), bits)])
    return int(spaced, 2) - (_ones(wider, len(text) // bits) << (bits - 1))


def _times_delta(y: int, bits: int) -> int:
    """delta * y in packed form, for a packed ``y`` with no constant term."""
    return -((y + (y << 2 * bits)) >> bits)


def _over_delta(y: int, bits: int) -> int:
    """y / delta in packed form, which has no constant term, for a packed
    ``y`` whose digits' absolute values sum to below 2^(bits-1).

    The remainder of y by 1 + B^2 is a + bB with |a|, |b| below 2^(bits-1),
    so its value a + b 2^bits is a multiple of 1 + 2^(2 bits) only when it is
    0: the integer division is exact exactly when the polynomial one is.
    Raises ExactDivisionError when it is not.
    """
    quotient, left = divmod(y, 1 + (1 << 2 * bits))
    if left:
        raise ExactDivisionError("Laurent division left a remainder")
    return -quotient << bits


#: Digit width, beyond the ``spare`` bits of ``_room``, first tried for a
#: computation whose proven width is wider.
_TRIAL_BITS = 64


def _room(state: dict[int, int], bits: int, spare: int, window: int) -> int:
    """How many more doubling steps keep the digits of ``state`` exact, given
    that they are exact now and that the caller multiplies the result by at
    most 2^spare after the last step; 0 if none.

    Adding 2^t to every one of the ``window`` digits carries into no digit
    and sets no bit above t (a negative sum sets them all) exactly when
    every digit lies in [-2^t, 2^t).  The absolute values then sum to below
    live * window * 2^t, which each step at most doubles.
    """
    t, offset, high = _room_masks(bits, window)
    if any((x + offset) & high for x in state.values()):
        return 0
    return max(0, bits - 1 - t - spare - (len(state) * window).bit_length())


# A computation widens its digits only upwards, so one entry serves its every
# check at a width; it holds two integers the size of one packed coefficient.
@lru_cache(maxsize=1)
def _room_masks(bits: int, window: int) -> tuple[int, int, int]:
    """``_room``'s t, and 2^t and 2^bits - 2^(t+1) in each of ``window`` digits."""
    t = bits // 2
    ones = _ones(bits, window)
    return t, ones << t, ones * ((1 << bits) - (2 << t))


def _as_poly(value: LaurentPoly | int) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    return LaurentPoly({0: value})


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
A = LaurentPoly.monomial(1)
A_INV = LaurentPoly.monomial(-1)
#: Loop value of a closed curve: delta = -A^2 - A^-2.
DELTA = LaurentPoly({2: -1, -2: -1})


def _render_terms(terms: list[tuple[int, int]], power: Callable[[int], str]) -> str:
    """Canonical text of ``(exponent, coefficient)`` terms in the given order.

    ``power(exp)`` writes the variable raised to a nonzero exponent.  A
    coefficient of 1 is elided and the exponent 0 leaves the bare coefficient.
    """
    parts: list[str] = []
    for exp, coeff in terms:
        sign, scalar = ("-" if coeff < 0 else "+"), abs(coeff)
        if exp == 0:
            body = str(scalar)
        elif scalar == 1:
            body = power(exp)
        else:
            body = f"{scalar}*{power(exp)}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"


def _t_power(quarters: int) -> str:
    if quarters % 4:  # quarters/4 in lowest terms, as Fraction(quarters, 4) prints it
        g = math.gcd(quarters, 4)
        return f"t^({quarters // g}/{4 // g})"
    k = quarters // 4
    return "t" if k == 1 else f"t^{k}"


class JonesPoly(LaurentPoly):
    """The Jones form V(t): exponent k stands for t^(k/4).

    ``evaluate`` takes t.  Equality and hashing are those of LaurentPoly on
    the quarter exponents, so V equals the LaurentPoly in t^(1/4) with the
    same terms, and arithmetic returns a plain LaurentPoly.  Text lists the
    terms in ascending t-order, whole powers written ``t^k`` (``t`` for
    k = 1) and fractional ones ``t^(p/q)``.
    """

    __slots__ = ()

    def evaluate(self, t: complex) -> complex:
        """Numeric value using the principal branch of t^(1/4)."""
        if t == 0:
            raise ValueError("cannot evaluate at t = 0")
        return super().evaluate(complex(t) ** 0.25)

    def terms(self) -> list[tuple[int, int]]:
        """Terms in ascending t-exponent order."""
        return sorted(self._terms.items())

    def __str__(self) -> str:
        return _render_terms(self.terms(), _t_power)


def to_jones_variable(f: LaurentPoly) -> JonesPoly:
    """Rewrite a normalized invariant f(A) in the Jones variable t = A^-4.

    Termwise exponent map c*A^e -> c*t^(-e/4), kept exact by counting quarter
    powers of t: the result is f.invert_variable(), rendered in t.
    """
    return JonesPoly({-e: c for e, c in f.terms()})
