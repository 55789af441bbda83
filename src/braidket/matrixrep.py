"""Matrix realizations of the Temperley-Lieb generators and braid images.

Two constructions live here, both over exact Laurent coefficients:

* the cup/cap tensor representation on (C^2)^(tensor n): the 2x2 matrix
  M = [[0, iA], [-iA^-1, 0]] plays both cup and cap, U = cup over cap has
  entries U^{ab}_{cd} = M^{ab} M_{cd}, and eta = M M^t closes the strands so
  that Trace(eta^(tensor n) rho(b)) = delta * <closure(b)>;

* the projector representation on C^n built from the vectors
  v_k = iA W_k - iA^-1 W_{k+1} via U_k = |v_k><v_k| (formal transpose, no
  conjugation), whose braid images realize the Burau-type representation.

Both are computed over Z: M = i*M' with the integer matrix
M' = [[0, A], [-A^-1, 0]], and each use of M takes its entries in pairs, so
each i^2 becomes a sign.  A TL diagram with k caps has k cups, so its image
is (-1)^k times the same product over M'; eta = -M' M'^t; and
|v_k><v_k| = -|v'_k><v'_k| with v'_k = A W_k - A^-1 W_{k+1}.

Tensor index order: strand 1 is the most significant bit of the row/column
index, i.e. rows and columns are labelled by bit strings in lexicographic
order.

``rho_matrix`` and ``z_amplitude`` share one product: the letter factors and
eta^(tensor n), packed once per strand count in the form of ``laurent``,
multiplied as ints row by row (``_packed_rho``); ``rho_matrix`` unpacks
every entry, ``z_amplitude`` the trace alone.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul
from typing import NamedTuple

from ._record import Record, set_field
from .braid import BraidWord
from .errors import SizeLimitError
from .laurent import A, A_INV, LaurentPoly, ONE, ZERO, _pack, _unpack
from .tl import TLDiagram, TLElement, generator_diagram

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


class SymbolicMatrix(Record):
    """Square matrix with LaurentPoly entries, stored as its nonzero entries.

    ``entries`` maps (row, column) to a nonzero polynomial; the constructor
    drops zero entries, so equal matrices have equal ``entries``.  No method
    changes a matrix in place.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict[tuple[int, int], LaurentPoly]):
        set_field(self, "dim", dim)
        set_field(self, "entries", {index: e for index, e in entries.items() if not e.is_zero})

    @classmethod
    def zeros(cls, dim: int) -> "SymbolicMatrix":
        return cls(dim, {})

    @classmethod
    def identity(cls, dim: int) -> "SymbolicMatrix":
        return cls(dim, {(i, i): ONE for i in range(dim)})

    @property
    def rows(self) -> list[list[LaurentPoly]]:
        """Dense view: a fresh list of rows, zeros included."""
        return [[self[i, j] for j in range(self.dim)] for i in range(self.dim)]

    def __getitem__(self, index: tuple[int, int]) -> LaurentPoly:
        return self.entries.get(index, ZERO)

    def __mul__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ")
        by_row: dict[int, list[tuple[int, LaurentPoly]]] = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        out: dict[tuple[int, int], LaurentPoly] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                out[i, j] = out.get((i, j), ZERO) + a * b
        return SymbolicMatrix(self.dim, out)

    def __add__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ")
        out = dict(self.entries)
        for index, b in other.entries.items():
            out[index] = out.get(index, ZERO) + b
        return SymbolicMatrix(self.dim, out)

    def scale(self, factor: LaurentPoly | int) -> "SymbolicMatrix":
        return SymbolicMatrix(self.dim, {index: e * factor for index, e in self.entries.items()})

    def transpose(self) -> "SymbolicMatrix":
        return SymbolicMatrix(self.dim, {(j, i): e for (i, j), e in self.entries.items()})

    def trace(self) -> LaurentPoly:
        return sum((e for (i, j), e in self.entries.items() if i == j), ZERO)

    def kron(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        d2 = other.dim
        return SymbolicMatrix(
            self.dim * d2,
            {
                (i1 * d2 + i2, j1 * d2 + j2): a * b
                for (i1, j1), a in self.entries.items()
                for (i2, j2), b in other.entries.items()
            },
        )


def trace_product(x: SymbolicMatrix, y: SymbolicMatrix) -> LaurentPoly:
    """Trace(x*y) without forming the product matrix."""
    if x.dim != y.dim:
        raise ValueError("matrix dimensions differ")
    ys = y.entries
    return sum((a * ys[j, i] for (i, j), a in x.entries.items() if (j, i) in ys), ZERO)


#: M' = M/i for the 2x2 cup/cap matrix M, used with both upper and lower indices.
_M = SymbolicMatrix(2, {(0, 1): A, (1, 0): -A_INV})


class ElementaryTensors(NamedTuple):
    M: SymbolicMatrix
    eta: SymbolicMatrix
    R: SymbolicMatrix


def exact_factor(identity, u, g: int):
    """Exact image of one letter: A*1 + A^-1*U for g > 0, A^-1*1 + A*U for g < 0.

    ``identity`` and ``u`` are 1 and U_|g| of any exact representation whose
    elements have ``scale`` and ``+``.
    """
    a, a_inv = (A, A_INV) if g > 0 else (A_INV, A)
    return identity.scale(a) + u.scale(a_inv)


def elementary_tensors() -> ElementaryTensors:
    """M' = [[0, A], [-A^-1, 0]], the cup/cap matrix M = i*M' without its
    factor i; the strand closer eta = M M^t = -M' M'^t; and the 4x4 crossing
    matrix R^{ab}_{cd} = A M^{ab} M_{cd} + A^-1 delta^a_c delta^b_d."""
    eta = (_M * _M.transpose()).scale(-1)
    r = exact_factor(SymbolicMatrix.identity(4), u_tensor(2, 1), -1)
    return ElementaryTensors(SymbolicMatrix(2, _M.entries), eta, r)


def _check_tensor_strands(n: int) -> None:
    if n > MAX_TENSOR_STRANDS:
        raise SizeLimitError(f"tensor representation guarded to {MAX_TENSOR_STRANDS} strands")


def u_tensor(n: int, i: int) -> SymbolicMatrix:
    """TL generator U_i on (C^2)^(tensor n): the image of its diagram, so
    identities with one cup-over-cap block U^{ab}_{cd} = M^{ab} M_{cd}."""
    _check_tensor_strands(n)
    if n < 2 or not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} invalid for {n} strands")
    return _diagram_tensor_image(generator_diagram(n, i))


def _tensor_factor(n: int, g: int) -> SymbolicMatrix:
    """The letter g's factor A*I + A^-1*U_|g| (A^-1*I + A*U_|g| for g < 0)."""
    return exact_factor(SymbolicMatrix.identity(2**n), u_tensor(n, abs(g)), g)


def _strand_closer(n: int) -> SymbolicMatrix:
    """eta^(tensor n)."""
    _, eta, _ = elementary_tensors()
    return reduce(SymbolicMatrix.kron, [eta] * n, SymbolicMatrix.identity(1))


def _norm(entry: LaurentPoly) -> int:
    """The sum of the absolute values of the coefficients."""
    return sum(abs(c) for _, c in entry)


def _row_norm(matrix: SymbolicMatrix) -> int:
    """The largest sum of the ``_norm`` of a row's entries."""
    sums = [0] * matrix.dim
    for (i, _), e in matrix.entries.items():
        sums[i] += _norm(e)
    return max(sums)


#: A packed matrix: the exponent of A that digit 0 of its entries stands
#: for, and per row the (column, packed entry) pairs of its nonzero entries.
_Packed = tuple[int, list[list[tuple[int, int]]]]


class _PackedTensors(NamedTuple):
    bits: int
    factors: dict[int, _Packed]
    closer: _Packed


# At most MAX_TENSOR_STRANDS entries, each 2 * (n - 1) factors of 2^n rows.
@lru_cache(maxsize=None)
def _packed_tensors(n: int) -> _PackedTensors:
    """Every letter factor of n strands and eta^(tensor n) in the packed
    form of ``laurent``, at one digit width proven for every word within
    MAX_TENSOR_WORD.

    A row norm (``_row_norm``) of a product of matrices is at most the
    product of its factors', so with R the largest one of a factor, every
    coefficient of rho(b) for k letters is at most R^k in absolute value,
    and every one of Trace(eta^(tensor n) rho(b)) at most C R^k for C the
    sum of the closer's ``_norm``s.  With k <= MAX_TENSOR_WORD both lie
    below 2^(bits-1), as ``_unpack`` needs, when ``bits`` is one more than
    the bit length of C R^MAX_TENSOR_WORD.
    """
    factors = {g: _tensor_factor(n, g) for i in range(1, n) for g in (i, -i)}
    closer = _strand_closer(n)
    row_norm = max(map(_row_norm, factors.values()), default=1)
    closer_norm = sum(map(_norm, closer.entries.values()))
    bits = (row_norm**MAX_TENSOR_WORD * closer_norm).bit_length() + 1

    def packed(matrix: SymbolicMatrix) -> _Packed:
        low = min(e.min_exponent() for e in matrix.entries.values())
        rows: list[list[tuple[int, int]]] = [[] for _ in range(matrix.dim)]
        for (i, j), e in matrix.entries.items():
            rows[i].append((j, _pack(e, bits, low)))
        return low, rows

    return _PackedTensors(bits, {g: packed(f) for g, f in factors.items()}, packed(closer))


def _packed_rho(b: BraidWord) -> tuple[_PackedTensors, int, list[dict[int, int]]]:
    """rho(b) in packed form: the packed tensors of its strand count, the
    exponent that digit 0 of rho(b)'s entries stands for, and its rows, each
    a map column -> entry, built a row at a time letter by letter."""
    _check_tensor_strands(b.strands)
    if len(b.letters) > MAX_TENSOR_WORD:
        raise SizeLimitError(f"tensor word length guarded to {MAX_TENSOR_WORD}")
    packed = _packed_tensors(b.strands)
    low, factors = 0, []
    for g in b.letters:
        factor_low, factor = packed.factors[g]
        low += factor_low
        factors.append(factor)
    rows = []
    for i in range(2**b.strands):
        row = {i: 1}
        for factor in factors:
            grown: dict[int, int] = {}
            for k, x in row.items():
                if x:
                    for j, y in factor[k]:
                        grown[j] = grown.get(j, 0) + x * y
            row = grown
        rows.append(row)
    return packed, low, rows


def rho_matrix(b: BraidWord) -> SymbolicMatrix:
    """Tensor image of a braid word: per-letter factors A*I + A^-1*U_i."""
    packed, low, rows = _packed_rho(b)
    entries = {
        (i, j): _unpack(x, packed.bits, low) for i, row in enumerate(rows) for j, x in row.items()
    }
    return SymbolicMatrix(2**b.strands, entries)


def z_amplitude(b: BraidWord) -> LaurentPoly:
    """Trace(eta^(tensor n) * rho(b)) = delta * <closure(b)>."""
    packed, low, rows = _packed_rho(b)
    closer_low, closer = packed.closer
    trace = sum(x * rows[j].get(i, 0) for i, row in enumerate(closer) for j, x in row)
    return _unpack(trace, packed.bits, low + closer_low)


def burau_generator(n: int, k: int) -> SymbolicMatrix:
    """Projector form of U_k on C^n: |v_k><v_k| with
    v_k = M^{01} W_k + M^{10} W_{k+1} = iA W_k - iA^-1 W_{k+1}, that is
    -|v'_k><v'_k| for v'_k = i^-1 v_k, whose entries are those of M'."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} invalid for {n} strands")
    v = {k - 1: _M[0, 1], k: _M[1, 0]}
    return SymbolicMatrix(n, {(i, j): -a * b for i, a in v.items() for j, b in v.items()})


def burau_rho(b: BraidWord) -> SymbolicMatrix:
    """Projector-representation image: per-letter factors A*I_n + A^-1*U_k."""
    identity = SymbolicMatrix.identity(b.strands)
    factors = (exact_factor(identity, burau_generator(b.strands, abs(g)), g) for g in b.letters)
    return reduce(mul, factors, identity)


#: The bit pairs an arc between points p < q may carry, each with its factor:
#: a cap or cup carries 01 or 10, weighted by M', and a through strand equal
#: bits, weighted 1 (None: the entry is kept, not multiplied).
_ARC_LABELS = tuple((a, b, m) for (a, b), m in _M.entries.items())
_THROUGH_LABELS = ((0, 0, None), (1, 1, None))


def _diagram_tensor_image(diagram: TLDiagram) -> SymbolicMatrix:
    """Tensor image of a single TL basis diagram.

    Each arc between two top points (left point p, right point q) contributes
    M^{a_p a_q}; an arc between bottom points contributes M_{b_p b_q}; a
    through strand forces its two bit labels equal.  Each arc takes one of
    two labellings, so the image has exactly 2^n nonzero entries, built arc
    by arc.  Each entry starts at i^(2k) = (-1)^k for the k caps and k cups
    and takes the arcs' factors from M' = M/i.
    """
    n = diagram.n

    def place(p: int, bit: int) -> tuple[int, int]:
        # Top point p is row bit n-1-p, bottom point n+k column bit n-1-k.
        return (bit << (n - 1 - p), 0) if p < n else (0, bit << (2 * n - 1 - p))

    entries = {(0, 0): -ONE if sum(q < n for _, q in diagram.arcs()) % 2 else ONE}
    for p, q in diagram.arcs():
        labels = _THROUGH_LABELS if p < n <= q else _ARC_LABELS
        grown = {}
        for (row, col), entry in entries.items():
            for a, b, factor in labels:
                (r1, c1), (r2, c2) = place(p, a), place(q, b)
                grown[row | r1 | r2, col | c1 | c2] = entry if factor is None else entry * factor
        entries = grown
    return SymbolicMatrix(2**n, entries)


def tl_tensor_image(element: TLElement) -> SymbolicMatrix:
    """Tensor image of a TL element (linear extension over its diagrams)."""
    _check_tensor_strands(element.n)
    images = (_diagram_tensor_image(d).scale(coeff) for d, coeff in element.combo.items())
    return sum(images, SymbolicMatrix.zeros(2**element.n))
