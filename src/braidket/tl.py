"""The diagrammatic Temperley-Lieb algebra TL_n.

A basis diagram is a non-crossing perfect pairing of 2n boundary points on a
rectangle: points 0..n-1 are the top row read left to right, points n..2n-1
are the bottom row read left to right.  Planarity is checked in rectangle
boundary order (top left-to-right, then bottom right-to-left), where the
pairing must nest like balanced parentheses.

Multiplication stacks the left factor above the right factor, gluing the
bottom row of the first onto the top row of the second.  Every closed loop
produced by the gluing contributes one factor of the loop value
delta = -A^2 - A^-2.

The braid fold works on bare pairing tuples in a ``DiagramTable``, which
multiplies by a generator in closed form: with x = n+i-1, y = n+i, a = p[x]
and b = p[y], d·U_i is d with one loop when a == y, and otherwise pairs a
with b and x with y.  The Markov closure glues a diagram to the identity
pairing (top k to bottom n+k); ``pairing_loops`` counts the loops of that
gluing.  ``TLDiagram`` checks a pairing (an involution, planar) only where
it comes from outside, a caller's ``TLDiagram(...)``, and where
``braid.rho_tl`` turns table ids back into diagrams; the table builds none.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from ._record import Record, set_field
from .errors import SizeLimitError
from .laurent import DELTA, LaurentPoly, ONE

__all__ = [
    "TLDiagram",
    "TLElement",
    "identity_diagram",
    "generator_diagram",
    "multiply",
    "pairing_loops",
    "closure_loop_count",
    "markov_trace",
    "enumerate_basis",
    "DiagramTable",
    "diagram_table",
    "discard_table",
]


class TLDiagram(Record):
    """A planar pairing of 2n points; ``pairing[p]`` is the partner of p."""

    __slots__ = ("n", "pairing")

    def __init__(self, n: int, pairing: tuple[int, ...]):
        set_field(self, "n", n)
        set_field(self, "pairing", pairing)
        if n < 1:
            raise ValueError("strand count must be at least 1")
        size = 2 * n
        if len(pairing) != size:
            raise ValueError(f"pairing must list {size} points")
        for p, q in enumerate(pairing):
            if not 0 <= q < size:
                raise ValueError(f"point {p} paired outside range: {q}")
            if q == p:
                raise ValueError(f"point {p} paired with itself")
            if pairing[q] != p:
                raise ValueError("pairing is not an involution")
        # Balanced-parenthesis planarity test in boundary order.
        boundary = list(range(n)) + list(range(size - 1, n - 1, -1))
        seen: set[int] = set()
        stack: list[int] = []
        for p in boundary:
            if pairing[p] in seen:
                if not stack or stack[-1] != pairing[p]:
                    raise ValueError("pairing has crossing arcs")
                stack.pop()
            else:
                seen.add(p)
                stack.append(p)
        if stack:
            raise ValueError("pairing has crossing arcs")

    def arcs(self) -> list[tuple[int, int]]:
        """The n arcs as (smaller point, larger point) pairs."""
        return [(p, q) for p, q in enumerate(self.pairing) if p < q]


def _identity_pairing(n: int) -> tuple[int, ...]:
    """Top k paired with bottom n+k, the pairing every strand runs straight in."""
    return (*range(n, 2 * n), *range(n))


def identity_diagram(n: int) -> TLDiagram:
    """All-vertical diagram: top k paired with bottom k."""
    return TLDiagram(n, _identity_pairing(n))


def generator_diagram(n: int, i: int) -> TLDiagram:
    """The multiplicative generator U_i of TL_n (i = 0 gives the identity).

    U_i pairs top points i, i+1 with each other, likewise bottom points i,
    i+1, and runs every other strand straight down.
    """
    if i == 0:
        return identity_diagram(n)
    if i < 0 or i >= n:
        raise ValueError(f"generator index {i} invalid for {n} strands")
    pairing = list(_identity_pairing(n))
    top_a, top_b = i - 1, i
    bot_a, bot_b = n + i - 1, n + i
    pairing[top_a], pairing[top_b] = top_b, top_a
    pairing[bot_a], pairing[bot_b] = bot_b, bot_a
    return TLDiagram(n, tuple(pairing))


@lru_cache(maxsize=None)
def _glue(top: TLDiagram, bottom: TLDiagram) -> tuple[TLDiagram, int]:
    """Stack ``top`` over ``bottom``; return the glued diagram and loop count."""
    # Top keeps its points 0..2n-1 and bottom's move to n..3n-1, so the shared
    # middle row is n..2n-1.  Each middle point has one partner above (in top)
    # and one below (in bottom); a path through the middle alternates them.
    n = top.n
    above = top.pairing
    below = (None,) * n + tuple(q + n for q in bottom.pairing)
    middle = set(range(n, 2 * n))

    def walk(q: int, down: bool) -> int:
        # Remove the middle points met from q on; return the first other point.
        while q in middle:
            middle.remove(q)
            q = below[q] if down else above[q]
            down = not down
        return q

    ends: list[int | None] = [None] * (3 * n)
    for p in (*range(n), *range(2 * n, 3 * n)):
        if ends[p] is None:
            q = walk(above[p], True) if p < n else walk(below[p], False)
            ends[p], ends[q] = q, p
    # Every middle point still left lies on a closed loop.
    loops = 0
    while middle:
        walk(next(iter(middle)), True)
        loops += 1
    pairing = tuple(q if q < n else q - n for q in ends[:n] + ends[2 * n :])
    return TLDiagram(n, pairing), loops


class TLElement(Record):
    """A formal Laurent-weighted sum of TL_n basis diagrams; unlike the
    package's other records, mutable and unhashable."""

    __slots__ = ("n", "combo")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, n: int, combo: dict[TLDiagram, LaurentPoly] | None = None):
        cleaned = {}
        for diagram, coeff in (combo or {}).items():
            if diagram.n != n:
                raise ValueError("all diagrams must share the element's strand count")
            if not coeff.is_zero:
                cleaned[diagram] = coeff
        self.n, self.combo = n, cleaned

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        return cls(n, {identity_diagram(n): ONE})

    @classmethod
    def from_diagram(cls, diagram: TLDiagram, coeff: LaurentPoly | int = 1) -> "TLElement":
        coeff = coeff if isinstance(coeff, LaurentPoly) else LaurentPoly({0: coeff})
        return cls(diagram.n, {diagram: coeff})

    def scale(self, factor: LaurentPoly | int) -> "TLElement":
        return TLElement(self.n, {d: c * factor for d, c in self.combo.items()})

    def __add__(self, other: "TLElement") -> "TLElement":
        if self.n != other.n:
            raise ValueError("strand counts differ")
        out = dict(self.combo)
        for d, c in other.combo.items():
            out[d] = out.get(d, LaurentPoly.zero()) + c
        return TLElement(self.n, out)

    def __mul__(self, other):
        if isinstance(other, TLElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


def multiply(x: TLElement, y: TLElement) -> TLElement:
    """Bilinear diagram stacking; each loop contributes a factor delta."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: TL_{x.n} times TL_{y.n}")
    out: dict[TLDiagram, LaurentPoly] = {}
    for dx, cx in x.combo.items():
        for dy, cy in y.combo.items():
            glued, loops = _glue(dx, dy)
            coeff = cx * cy
            if loops:
                coeff = coeff * DELTA**loops
            out[glued] = out.get(glued, LaurentPoly.zero()) + coeff
    return TLElement(x.n, out)


class DiagramTable:
    """The TL_n diagrams met so far, as pairing tuples with small int ids, and
    the right action of the generators on them, both filled in on first use.

    ``actions[i][d]`` is the id of d·U_i.  It needs no gluing walk: with
    x = n+i-1 and y = n+i the bottom points U_i caps, and a = p[x], b = p[y]
    their partners in d's pairing p, the cap of U_i joins the path a-x-y-b.
    If a == y, d already caps x and y: the path closes into one loop and
    d·U_i = d.  Otherwise a is paired with b, and the cup of U_i pairs x with
    y, so d·U_i != d: the stacking closes a loop exactly when it maps d to d.
    Stacking planar diagrams keeps them planar, so the table checks no
    pairing: ``TLDiagram`` validates where diagrams come from outside, and
    where ``braid.rho_tl`` turns ids back into diagrams.
    """

    __slots__ = ("n", "pairings", "_ids", "actions", "_closure", "identity")

    def __init__(self, n: int):
        self.n = n
        self.pairings: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self.actions: list[dict[int, int]] = [{} for _ in range(n)]
        self._closure: dict[int, int] = {}
        self.identity = self.intern(_identity_pairing(n))

    def intern(self, pairing: tuple[int, ...]) -> int:
        """The id of a pairing, assigned on first sight."""
        ident = self._ids.get(pairing)
        if ident is None:
            ident = self._ids[pairing] = len(self.pairings)
            self.pairings.append(pairing)
        return ident

    def act(self, i: int, d: int) -> int:
        """Fill and return ``actions[i][d]`` by the closed form."""
        p = self.pairings[d]
        x = self.n + i - 1
        y = x + 1
        a, b = p[x], p[y]
        e = d
        if a != y:
            q = list(p)
            q[a], q[b], q[x], q[y] = b, a, y, x
            e = self.intern(tuple(q))
        self.actions[i][d] = e
        return e

    def closure_loops(self, d: int) -> int:
        """``closure_loop_count`` of diagram d, cached."""
        loops = self._closure.get(d)
        if loops is None:
            identity = self.pairings[self.identity]
            loops = self._closure[d] = pairing_loops(self.pairings[d], identity)
        return loops


_tables: dict[int, DiagramTable] = {}


def diagram_table(n: int) -> DiagramTable:
    """The one DiagramTable of TL_n in this process."""
    table = _tables.get(n)
    if table is None:
        table = _tables[n] = DiagramTable(n)
    return table


def discard_table(n: int) -> None:
    """Drop TL_n's table, freeing its diagrams; the next use starts afresh."""
    _tables.pop(n, None)


def pairing_loops(first: Sequence[int], second: Sequence[int]) -> int:
    """Closed loops made by gluing two perfect pairings of the same points.

    Every point lies on one edge of each pairing, so each loop alternates
    the two; the walk marks both ends of each ``first`` edge it takes.
    """
    seen = bytearray(len(first))
    loops = 0
    for start in range(len(first)):
        if seen[start]:
            continue
        loops += 1
        p = start
        while not seen[p]:
            q = first[p]
            seen[p] = seen[q] = 1
            p = second[q]
    return loops


def closure_loop_count(d: TLDiagram) -> int:
    """Number of loops after joining top k to bottom k for every strand."""
    return pairing_loops(d.pairing, _identity_pairing(d.n))


def markov_trace(x: TLElement) -> LaurentPoly:
    """TR(x) = sum of coeff(d) * delta^(closure loop count of d)."""
    total = LaurentPoly.zero()
    for diagram, coeff in x.combo.items():
        total = total + coeff * DELTA ** closure_loop_count(diagram)
    return total


def enumerate_basis(n: int) -> list[TLDiagram]:
    """All Catalan(n) basis diagrams of TL_n (guarded to n <= 8)."""
    if n < 1:
        raise ValueError(f"basis enumeration supports 1 <= n <= 8, got {n}")
    if n > 8:
        raise SizeLimitError(f"basis enumeration supports 1 <= n <= 8, got {n}")
    boundary = list(range(n)) + list(range(2 * n - 1, n - 1, -1))

    def matchings(points: tuple[int, ...]) -> list[list[tuple[int, int]]]:
        if not points:
            return [[]]
        first = points[0]
        results = []
        for k in range(1, len(points), 2):
            inner = matchings(points[1:k])
            outer = matchings(points[k + 1 :])
            for left in inner:
                for right in outer:
                    results.append([(first, points[k])] + left + right)
        return results

    diagrams = []
    for match in matchings(tuple(boundary)):
        pairing = [0] * (2 * n)
        for p, q in match:
            pairing[p] = q
            pairing[q] = p
        diagrams.append(TLDiagram(n, tuple(pairing)))
    return diagrams
