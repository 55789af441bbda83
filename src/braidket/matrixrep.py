"""Matrix realizations of the Temperley-Lieb generators and braid images.

Two constructions live here, both over exact Laurent coefficients:

* the cup/cap tensor representation on (C^2)^(tensor n): the 2x2 matrix
  M = [[0, iA], [-iA^-1, 0]] plays both cup and cap, U = cup over cap has
  entries U^{ab}_{cd} = M^{ab} M_{cd}, and eta = M M^t closes the strands so
  that Trace(eta^(tensor n) rho(b)) = delta * <closure(b)>;

* the projector representation on C^n built from the vectors
  v_k = iA W_k - iA^-1 W_{k+1} via U_k = |v_k><v_k| (formal transpose, no
  conjugation), whose braid images realize the Burau-type representation.

Tensor index order: strand 1 is the most significant bit of the row/column
index, i.e. rows and columns are labelled by bit strings in lexicographic
order.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, NamedTuple

from .braid import BraidWord, exact_factor, represent
from .errors import SizeLimitError
from .laurent import GaussianInt, LaurentPoly, ONE, ZERO
from .tl import TLDiagram, TLElement

__all__ = [
    "SymbolicMatrix",
    "ElementaryTensors",
    "elementary_tensors",
    "u_tensor",
    "rho_matrix",
    "z_amplitude",
    "burau_generator",
    "burau_rho",
    "tl_tensor_image",
]

MAX_TENSOR_STRANDS = 6
MAX_TENSOR_WORD = 12


class SymbolicMatrix:
    """Dense square matrix with LaurentPoly entries."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: list[list[LaurentPoly]]):
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise ValueError("matrix must be square")
        self.dim = dim
        self.rows = rows

    @classmethod
    def zeros(cls, dim: int) -> "SymbolicMatrix":
        return cls([[ZERO for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "SymbolicMatrix":
        out = cls.zeros(dim)
        for i in range(dim):
            out.rows[i][i] = ONE
        return out

    def __getitem__(self, index: tuple[int, int]) -> LaurentPoly:
        i, j = index
        return self.rows[i][j]

    def __mul__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ")
        dim = self.dim
        out = SymbolicMatrix.zeros(dim)
        for i in range(dim):
            row_i = self.rows[i]
            out_i = out.rows[i]
            for k in range(dim):
                a = row_i[k]
                if a.is_zero:
                    continue
                other_k = other.rows[k]
                for j in range(dim):
                    b = other_k[j]
                    if not b.is_zero:
                        out_i[j] = out_i[j] + a * b
        return out

    def __add__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ")
        return SymbolicMatrix(
            [
                [a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.rows, other.rows)
            ]
        )

    def scale(self, factor: LaurentPoly | int) -> "SymbolicMatrix":
        return SymbolicMatrix([[entry * factor for entry in row] for row in self.rows])

    def transpose(self) -> "SymbolicMatrix":
        return SymbolicMatrix([list(col) for col in zip(*self.rows)])

    def trace(self) -> LaurentPoly:
        total = ZERO
        for i in range(self.dim):
            total = total + self.rows[i][i]
        return total

    def kron(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        d1, d2 = self.dim, other.dim
        out = SymbolicMatrix.zeros(d1 * d2)
        for i1 in range(d1):
            for j1 in range(d1):
                a = self.rows[i1][j1]
                if a.is_zero:
                    continue
                for i2 in range(d2):
                    for j2 in range(d2):
                        b = other.rows[i2][j2]
                        if not b.is_zero:
                            out.rows[i1 * d2 + i2][j1 * d2 + j2] = a * b
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"SymbolicMatrix({body})"

    def to_json(self) -> list[list[list[list[int]]]]:
        return [[entry.to_json() for entry in row] for row in self.rows]


def trace_product(x: SymbolicMatrix, y: SymbolicMatrix) -> LaurentPoly:
    """Trace(x*y) without forming the product matrix."""
    if x.dim != y.dim:
        raise ValueError("matrix dimensions differ")
    total = ZERO
    for i in range(x.dim):
        row = x.rows[i]
        for j in range(x.dim):
            a = row[j]
            if not a.is_zero:
                b = y.rows[j][i]
                if not b.is_zero:
                    total = total + a * b
    return total


#: The 2x2 cup/cap matrix, used with both upper and lower indices.
_M_ENTRIES = [
    [ZERO, LaurentPoly.monomial(1, GaussianInt(0, 1))],
    [LaurentPoly.monomial(-1, GaussianInt(0, -1)), ZERO],
]


def _cup_cap_matrix() -> SymbolicMatrix:
    return SymbolicMatrix([list(row) for row in _M_ENTRIES])


def _u_block() -> SymbolicMatrix:
    """The 4x4 cup-over-cap block U^{ab}_{cd} = M^{ab} M_{cd}."""
    out = SymbolicMatrix.zeros(4)
    for a in range(2):
        for b in range(2):
            upper = _M_ENTRIES[a][b]
            if upper.is_zero:
                continue
            for c in range(2):
                for d in range(2):
                    lower = _M_ENTRIES[c][d]
                    if not lower.is_zero:
                        out.rows[2 * a + b][2 * c + d] = upper * lower
    return out


class ElementaryTensors(NamedTuple):
    M: SymbolicMatrix
    eta: SymbolicMatrix
    R: SymbolicMatrix


def elementary_tensors() -> ElementaryTensors:
    """The cup/cap matrix M, the strand closer eta = M M^t, and the 4x4
    crossing matrix R^{ab}_{cd} = A M^{ab} M_{cd} + A^-1 delta^a_c delta^b_d."""
    m = _cup_cap_matrix()
    eta = m * m.transpose()
    r = exact_factor(SymbolicMatrix.identity(4), _u_block(), -1)
    return ElementaryTensors(m, eta, r)


def u_tensor(n: int, i: int) -> SymbolicMatrix:
    """TL generator U_i on (C^2)^(tensor n): identities with one U block."""
    if n > MAX_TENSOR_STRANDS:
        raise SizeLimitError(f"tensor representation guarded to {MAX_TENSOR_STRANDS} strands")
    if n < 2 or not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} invalid for {n} strands")
    out = SymbolicMatrix.identity(2 ** (i - 1))
    out = out.kron(_u_block())
    return out.kron(SymbolicMatrix.identity(2 ** (n - i - 1)))


def _symbolic_rho(
    b: BraidWord, dim: int, generator: Callable[[int], SymbolicMatrix]
) -> SymbolicMatrix:
    """Fold of the letter factors A*I + A^-1*generator(i) over the word."""
    identity = SymbolicMatrix.identity(dim)
    return represent(
        b.letters, identity, lambda g: exact_factor(identity, generator(abs(g)), g), mul
    )


def rho_matrix(b: BraidWord) -> SymbolicMatrix:
    """Tensor image of a braid word: per-letter factors A*I + A^-1*U_i."""
    if b.strands > MAX_TENSOR_STRANDS:
        raise SizeLimitError(f"tensor representation guarded to {MAX_TENSOR_STRANDS} strands")
    if len(b.letters) > MAX_TENSOR_WORD:
        raise SizeLimitError(f"tensor word length guarded to {MAX_TENSOR_WORD}")
    return _symbolic_rho(b, 2**b.strands, lambda i: u_tensor(b.strands, i))


def z_amplitude(b: BraidWord) -> LaurentPoly:
    """Trace(eta^(tensor n) * rho(b)) = delta * <closure(b)>."""
    _, eta, _ = elementary_tensors()
    eta_n = SymbolicMatrix.identity(1)
    for _ in range(b.strands):
        eta_n = eta_n.kron(eta)
    return trace_product(eta_n, rho_matrix(b))


def burau_generator(n: int, k: int) -> SymbolicMatrix:
    """Projector form of U_k on C^n: |v_k><v_k| with v_k = iA W_k - iA^-1 W_{k+1}."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} invalid for {n} strands")
    v = [ZERO] * n
    v[k - 1] = LaurentPoly.monomial(1, GaussianInt(0, 1))
    v[k] = LaurentPoly.monomial(-1, GaussianInt(0, -1))
    out = SymbolicMatrix.zeros(n)
    for i in range(n):
        if v[i].is_zero:
            continue
        for j in range(n):
            if not v[j].is_zero:
                out.rows[i][j] = v[i] * v[j]
    return out


def burau_rho(b: BraidWord) -> SymbolicMatrix:
    """Projector-representation image: per-letter factors A*I_n + A^-1*U_k."""
    return _symbolic_rho(b, b.strands, lambda k: burau_generator(b.strands, k))


def _diagram_tensor_image(diagram: TLDiagram) -> SymbolicMatrix:
    """Tensor image of a single TL basis diagram.

    Each arc between two top points (left point p, right point q) contributes
    M^{a_p a_q}; an arc between bottom points contributes M_{b_p b_q}; a
    through strand forces its two bit labels equal.
    """
    n = diagram.n
    top_arcs: list[tuple[int, int]] = []
    bottom_arcs: list[tuple[int, int]] = []
    throughs: list[tuple[int, int]] = []
    for p, q in diagram.arcs():
        if q < n:
            top_arcs.append((p, q))
        elif p >= n:
            bottom_arcs.append((p - n, q - n))
        else:
            throughs.append((p, q - n))
    dim = 2**n
    out = SymbolicMatrix.zeros(dim)
    for row in range(dim):
        abits = [(row >> (n - 1 - p)) & 1 for p in range(n)]
        for col in range(dim):
            bbits = [(col >> (n - 1 - p)) & 1 for p in range(n)]
            if any(abits[p] != bbits[q] for p, q in throughs):
                continue
            entry = ONE
            for p, q in top_arcs:
                entry = entry * _M_ENTRIES[abits[p]][abits[q]]
                if entry.is_zero:
                    break
            else:
                for p, q in bottom_arcs:
                    entry = entry * _M_ENTRIES[bbits[p]][bbits[q]]
                    if entry.is_zero:
                        break
                else:
                    out.rows[row][col] = entry
    return out


def tl_tensor_image(element: TLElement) -> SymbolicMatrix:
    """Tensor image of a TL element (linear extension over its diagrams)."""
    if element.n > MAX_TENSOR_STRANDS:
        raise SizeLimitError(f"tensor representation guarded to {MAX_TENSOR_STRANDS} strands")
    out = SymbolicMatrix.zeros(2**element.n)
    for diagram, coeff in element.combo.items():
        out = out + _diagram_tensor_image(diagram).scale(coeff)
    return out
