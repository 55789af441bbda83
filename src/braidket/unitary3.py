"""Unitary two-dimensional representation of the three-strand braid group.

At A = e^(i*theta) the loop value is delta = -2*cos(2*theta); whenever
delta^2 >= 1 the two real symmetric matrices

    U1 = [[delta, 0], [0, 0]]
    U2 = [[1/delta, sqrt(1 - 1/delta^2)], [sqrt(1 - 1/delta^2), delta - 1/delta]]

satisfy the TL relations, and rho(sigma_i) = A*I + A^-1*U_i is unitary.  That
constrains theta to |theta| <= pi/6 or |theta - pi| <= pi/6.  The bracket of a
3-braid closure comes straight from the trace:

    <closure(b)> = tr(rho(b)) + A^E * (delta^2 - 2)

where E is the exponent sum of the word.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import matmul

import numpy as np

from .braid import BraidWord, exponent_sum, represent
from .errors import InvalidAngleError

__all__ = ["UnitarySetup", "unitary_generators", "rho_unitary", "bracket_from_trace"]

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class UnitarySetup:
    theta: float
    a: complex  # e^(i*theta), the numeric value substituted for A
    delta: float
    u1: np.ndarray
    u2: np.ndarray


def unitary_generators(theta: float) -> UnitarySetup:
    """Build the numeric TL generators at angle theta.

    Raises InvalidAngleError when theta is not finite, or when delta^2 < 1,
    where the off-diagonal entry sqrt(1 - 1/delta^2) would be imaginary.
    Boundary angles with delta^2 = 1 are accepted (the off-diagonal entry
    degenerates to zero).
    """
    if not math.isfinite(theta):
        raise InvalidAngleError(f"theta = {theta} is not finite")
    delta = -2.0 * math.cos(2.0 * theta)
    if delta * delta < 1.0 - _DEGENERACY_TOL:
        raise InvalidAngleError(
            f"delta^2 = {delta * delta:.6f} < 1 at theta = {theta}; "
            "valid ranges are |theta| <= pi/6 and |theta - pi| <= pi/6"
        )
    inv = 1.0 / delta
    b_sq = max(0.0, 1.0 - inv * inv)
    b = math.sqrt(b_sq)
    u1 = np.array([[delta, 0.0], [0.0, 0.0]])
    u2 = np.array([[inv, b], [b, delta - inv]])
    return UnitarySetup(theta, cmath.exp(1j * theta), delta, u1, u2)


def rho_unitary(b: BraidWord, setup: UnitarySetup) -> np.ndarray:
    """Unitary image of a 3-strand braid word: factors A*I + A^-1*U_i."""
    if b.strands != 3:
        raise ValueError(f"unitary representation needs 3 strands, got {b.strands}")
    identity = np.eye(2, dtype=complex)

    def factor(g: int) -> np.ndarray:
        u = setup.u1 if abs(g) == 1 else setup.u2
        if g > 0:
            return setup.a * identity + u / setup.a
        return identity / setup.a + setup.a * u

    return represent(b.letters, identity, factor, matmul)


def bracket_from_trace(b: BraidWord, setup: UnitarySetup) -> complex:
    """Numeric bracket of the 3-braid closure from the representation trace."""
    rho = rho_unitary(b, setup)
    return complex(np.trace(rho)) + setup.a ** exponent_sum(b) * (
        setup.delta**2 - 2.0
    )
