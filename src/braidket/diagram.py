"""PD-coded unoriented link diagrams and the bracket state sum.

A crossing stores four arc labels in counterclockwise order (s0, s1, s2, s3),
with the strand through s0 and s2 passing under the strand through s1 and s3,
plus a sign used for the writhe.  A state chooses one smoothing per crossing:
the A-smoothing joins s0-s1 and s2-s3, the B-smoothing joins s0-s3 and s1-s2.
With the loop value delta = -A^2 - A^-2 and B specialized to A^-1, the state
sum

    [K] = sum over states of A^(#A) * A^-(#B) * delta^(loops - 1)

is the bracket polynomial.  ``bracket_by_contraction`` builds the same sum
one crossing at a time, merging partial states that pair the open arc ends
alike, so its cost follows the width of that frontier rather than 2^N;
``bracket_state_sum`` visits all 2^N states and stays as its oracle.  It
walks them depth first, one crossing smoothed per step, keeping the far end
of each open path, so a chord closes a loop or joins two paths in O(1) and
is undone on the way back.  The writhe normalization
f = (-A^3)^(-writhe) * [K] is invariant under all diagram moves, and the
substitution A = t^(-1/4) turns f into the Jones polynomial.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from ._record import Record, set_field
from ._uf import DisjointSet
from .errors import ParseError, SizeLimitError
from .laurent import (
    DELTA,
    JonesPoly,
    LaurentPoly,
    _over_delta,
    _times_delta,
    _unpack,
    to_jones_variable,
)

__all__ = [
    "Crossing",
    "LinkDiagram",
    "StateSummary",
    "enumerate_states",
    "bracket_state_sum",
    "bracket_by_contraction",
    "writhe",
    "normalize",
    "normalize_bracket",
    "add_curl",
    "mirror_diagram",
    "diagram_to_json",
    "diagram_from_json",
]

MAX_CROSSINGS = 28
#: ``enumerate_states`` walks and stores all 2^N states, so its time and
#: memory double with each crossing; the contraction keeps MAX_CROSSINGS.
MAX_STATE_SUM_CROSSINGS = 16


class Crossing(Record):
    __slots__ = ("slots", "sign")

    def __init__(self, slots: tuple[int, int, int, int], sign: int):
        set_field(self, "slots", slots)
        set_field(self, "sign", sign)
        if len(slots) != 4:
            raise ValueError("a crossing has exactly four slots")
        if sign not in (-1, 1):
            raise ValueError(f"crossing sign must be +1 or -1, got {sign}")


class LinkDiagram(Record):
    __slots__ = ("crossings", "free_loops")

    def __init__(self, crossings: tuple[Crossing, ...], free_loops: int = 0):
        set_field(self, "crossings", crossings)
        set_field(self, "free_loops", free_loops)
        if free_loops < 0:
            raise ValueError("free loop count cannot be negative")
        counts = Counter(s for c in crossings for s in c.slots)
        bad = [label for label, k in counts.items() if k != 2]
        if bad:
            raise ValueError(f"arc labels must occur exactly twice; bad: {sorted(bad)}")
        other = _other_ends(tuple(c.slots for c in crossings))
        faces, components = _faces_and_components(other)
        if faces != len(crossings) + 2 * components:
            raise ValueError(f"the PD code is not planar ({faces} faces, {components} components)")
        _check_orientation(crossings, other)

    @property
    def is_empty(self) -> bool:
        return not self.crossings and self.free_loops == 0

    def arc_labels(self) -> list[int]:
        return sorted({s for c in self.crossings for s in c.slots})


def _other_ends(crossings: tuple[tuple[int, int, int, int], ...]) -> list[int]:
    """For each slot position 4*c + s, the position at the other end of its arc."""
    other = [0] * (4 * len(crossings))
    first_end: dict[int, int] = {}
    for p, label in enumerate(chain.from_iterable(crossings)):
        q = first_end.pop(label, None)
        if q is None:
            first_end[label] = p
        else:
            other[p], other[q] = q, p
    return other


def _faces_and_components(other: list[int]) -> tuple[int, int]:
    """Faces and connected components of the 4-valent graph of a PD code,
    given as the ``_other_ends`` of its slots.

    A face is a cycle of "follow the arc to its other end, then step to the
    next slot counterclockwise".  By Euler's formula (N vertices, 2N edges) a
    planar code has N + 2 faces per component.
    """
    joined = DisjointSet(len(other) // 4)
    for p, q in enumerate(other):
        if p < q:
            joined.union(p // 4, q // 4)
    faces = 0
    seen = [False] * len(other)
    for start in range(len(other)):
        if seen[start]:
            continue
        faces += 1
        p = start
        while not seen[p]:
            seen[p] = True
            q = other[p]
            p = q - q % 4 + (q + 1) % 4
    return faces, joined.component_count()


def _check_orientation(crossings: tuple[Crossing, ...], other: list[int]) -> None:
    """Raise ValueError unless one orientation of the link's components
    gives every crossing its sign.

    A sign is +1 exactly when the under strand runs s0 -> s2 and the over
    strand s3 -> s1, or both run the other way: a strand entering at slot s
    fits the sign when the other strand enters at s ^ 3 (+1) or s ^ 1 (-1).
    A component runs straight through a crossing (position p to p ^ 2) and
    then along the arc from there.  Each walk starts where its strand fits a
    strand walked before, or anywhere when no walked strand meets it, and
    checks every crossing whose other strand was walked already.
    """
    entered: list[bool | None] = [None] * len(other)
    todo = list(reversed(range(len(other))))
    while todo:
        p = todo.pop()
        while entered[p] is None:
            entered[p], entered[p ^ 2] = True, False
            crossing = crossings[p // 4]
            fit = p ^ (3 if crossing.sign > 0 else 1)
            if entered[fit] is None:
                todo.append(fit)
            elif not entered[fit]:
                raise ValueError(
                    f"crossing {p // 4} with slots {crossing.slots} has a sign "
                    "that fits no orientation of the link"
                )
            p = other[p ^ 2]


class StateSummary(Record):
    __slots__ = ("a_count", "b_count", "loops")

    def __init__(self, a_count: int, b_count: int, loops: int):
        set_field(self, "a_count", a_count)
        set_field(self, "b_count", b_count)
        set_field(self, "loops", loops)


def _oversize(crossings: int, free_loops: int, max_crossings: int = MAX_CROSSINGS) -> str | None:
    """The message of the first size guard a diagram of ``crossings``
    crossings and ``free_loops`` free loops trips, or None if it passes them;
    the contraction's guards unless ``max_crossings`` says otherwise."""
    if crossings > max_crossings:
        return f"{crossings} crossings exceeds the {max_crossings}-crossing guard"
    # Free loops add no states, but each is one more factor delta in every term.
    if free_loops > MAX_CROSSINGS:
        return f"{free_loops} free loops exceeds the {MAX_CROSSINGS}-loop guard"
    return None


def enumerate_states(diagram: LinkDiagram) -> list[StateSummary]:
    """All 2^N smoothing states with their loop counts, in the order of the
    mask whose bit c is set where crossing c is A-smoothed.

    Slot s of crossing c is position p = 4*c + s.  The A-smoothing of c
    joins p with p ^ 1 (s0-s1, s2-s3), the B-smoothing p with p ^ 3 (s0-s3,
    s1-s2); each is kept as ``(a, x, y, u, v)``: its two chords (x, y) and
    (u, v), and ``a``, what it adds to a state's key (below).  A depth-first
    walk smooths crossing N-1 first and c = 0 last, B before A, keeping in
    ``ends[p]`` the far end of the open path through each open position p;
    before any smoothing the paths are the arcs.  A chord (x, y) closes a
    loop when ``ends[x] == y`` and otherwise joins the paths ending at x and
    y by two writes, which restoring ``ends[end] = x`` and ``ends[other] =
    y`` undoes, the second chord's first.  So each state costs O(1) steps
    amortized.

    When crossing 0 is the last one left, its four positions are the only
    open ones, so ``ends`` pairs them among themselves: the first chord
    closes a loop exactly when the second does too, and otherwise joins the
    two paths into one that the second chord closes.  Its two states are
    counted without a call or a write.

    Each crossing closes at most two loops, so a state's loops lie below
    ``stride`` and the state is kept as one key, its A count times
    ``stride`` plus its loops, taken from ``interned`` so that the list of
    2^N keys holds one shared int per distinct key.  Each distinct key gets one
    ``StateSummary``, shared by every state that has it.
    """
    n = len(diagram.crossings)
    if (error := _oversize(n, diagram.free_loops, MAX_STATE_SUM_CROSSINGS)) is not None:
        raise SizeLimitError(error)
    ends = _other_ends(tuple(c.slots for c in diagram.crossings))
    stride = 2 * n + diagram.free_loops + 1
    smoothings = [
        ((0, p, p + 3, p + 1, p + 2), (stride, p, p + 1, p + 2, p + 3)) for p in range(0, 4 * n, 4)
    ]
    interned = list(range((n + 1) * stride))
    keys: list[int] = []
    append = keys.append

    def walk(c: int, key: int, loops: int) -> None:
        if not c:
            for a, x, y, _, _ in smoothings[0]:
                append(interned[key + a + loops + (2 if ends[x] == y else 1)])
            return
        for a, x, y, u, v in smoothings[c]:
            closed = loops
            end = ends[x]
            if end == y:
                closed += 1
            else:
                other = ends[y]
                ends[end], ends[other] = other, end
            end2 = ends[u]
            if end2 == v:
                closed += 1
            else:
                other2 = ends[v]
                ends[end2], ends[other2] = other2, end2
            walk(c - 1, key + a, closed)
            if end2 != v:
                ends[end2], ends[other2] = u, v
            if end != y:
                ends[end], ends[other] = x, y

    if n:
        walk(n - 1, 0, diagram.free_loops)
    else:
        append(diagram.free_loops)
    made = {}
    for key in set(keys):
        a_count, loops = divmod(key, stride)
        made[key] = StateSummary(a_count, n - a_count, loops)
    return list(map(made.__getitem__, keys))


def bracket_state_sum(diagram: LinkDiagram) -> LaurentPoly:
    """Bracket polynomial by brute-force summation over all states.

    States with the same A-power and loop count contribute the same term, so
    one tally counts them; Horner's rule in delta then sums the loop counts
    from the largest down.  Every state has at least one loop, so no power
    of delta is negative.
    """
    if diagram.is_empty:
        raise ValueError("the empty diagram has no bracket")
    levels: dict[int, dict[int, int]] = {}
    tally = Counter((s.a_count - s.b_count, s.loops) for s in enumerate_states(diagram))
    for (shift, loops), k in tally.items():
        levels.setdefault(loops, {})[shift] = k
    total = LaurentPoly.zero()
    for loops in range(max(levels), 0, -1):
        total = total * DELTA + LaurentPoly(levels.get(loops))
    return total


def _contraction_steps(
    crossings: tuple[tuple[int, int, int, int], ...],
    width: int | None = None,
) -> list[tuple[tuple[int, int, int, int], tuple[int, ...]]] | None:
    """Crossings' slots in contraction order, each with the sorted open arc
    labels (met once so far) after it, or None as soon as more than
    ``width`` labels are open.  Each next crossing shares the most labels
    with the open ones, ties going to the lowest index.

    ``shared[i]`` counts the open labels of crossing i; a label opens at one
    end of its arc and raises the count of the crossing at the other end,
    and once that crossing is contracted the count no longer matters.
    """
    other = _other_ends(crossings)
    shared = [0] * len(crossings)
    frontier: set[int] = set()
    steps = []
    for _ in crossings:
        best = shared.index(max(shared))
        slots = crossings[best]
        for p, s in enumerate(slots, start=4 * best):
            if s in frontier:
                frontier.remove(s)
            else:
                frontier.add(s)
                shared[other[p] // 4] += 1
        # Last, as a curl's label raises its own crossing's count.
        shared[best] = -1
        if width is not None and len(frontier) > width:
            return None
        steps.append((slots, tuple(sorted(frontier))))
    return steps


def bracket_by_contraction(diagram: LinkDiagram) -> LaurentPoly:
    """Bracket polynomial by contracting the state sum one crossing at a time
    (``_contract``)."""
    if diagram.is_empty:
        raise ValueError("the empty diagram has no bracket")
    if (error := _oversize(len(diagram.crossings), diagram.free_loops)) is not None:
        raise SizeLimitError(error)
    slots = tuple(c.slots for c in diagram.crossings)
    return _contract(_contraction_steps(slots), diagram.free_loops)


def _contract(steps: list[tuple[tuple[int, ...], tuple[int, ...]]], free_loops: int) -> LaurentPoly:
    """Bracket polynomial of the diagram whose crossings' slots come in the
    order of ``steps`` (``_contraction_steps``), with ``free_loops`` more
    loops.

    After some crossings are smoothed, the open arc ends (labels met once so
    far) are paired by the paths through them; partial states with the same
    pairing finish alike, so one entry per pairing holds all of them.  A chord
    of a smoothing joins two paths, extends one, opens one, or closes a loop
    (a curl's chord joins a label to itself).  An entry holds the sum over
    its partial states of the product of A^5 A^(+-1) per smoothing and delta
    per closed loop, in the packed form of ``laurent``: an A-smoothing
    shifts it by B^3, a B-smoothing by B^2, and a loop multiplies it by
    delta = -B^-1 (1 + B^2).  At most two loops close per crossing, so no
    exponent turns negative.  Each smoothing choice and each loop at most
    doubles the sum of the coefficients' absolute values, as do the k free
    loops of the start value (B delta)^k, so 3N + k + 2 bits hold every digit.
    Every state closes a loop, so the sum is delta times the bracket, which
    ``_over_delta`` divides out in packed form.
    """
    n, k = len(steps), free_loops
    bits = 3 * n + k + 2
    frontier: tuple[int, ...] = ()
    entries = {(): _times_delta(1 << bits, bits) ** k}
    for (s0, s1, s2, s3), next_frontier in steps:
        smoothings = ((((s0, s1), (s2, s3)), 3 * bits), (((s0, s3), (s1, s2)), 2 * bits))
        merged: dict[tuple[int, ...], int] = {}
        for key, packed in entries.items():
            for chords, shift in smoothings:
                partner = dict(zip(frontier, key))
                value = packed << shift
                for x, y in chords:
                    if x != y:
                        end = partner.pop(x, x)
                        if end != y:
                            other = partner.pop(y, y)
                            partner[end], partner[other] = other, end
                            continue
                        del partner[y]
                    value = _times_delta(value, bits)
                pairing = tuple(map(partner.__getitem__, next_frontier))
                merged[pairing] = merged.get(pairing, 0) + value
        entries, frontier = merged, next_frontier
    (packed,) = entries.values()
    return _unpack(_over_delta(packed, bits), bits, -5 * n - 2 * k)


def writhe(diagram: LinkDiagram) -> int:
    """Sum of the crossing signs."""
    return sum(c.sign for c in diagram.crossings)


def writhe_factor(w: int) -> LaurentPoly:
    """(-A^3)^(-w), the curl-compensation monomial."""
    return LaurentPoly.monomial(-3 * w, -1 if w % 2 else 1)


def normalize(diagram: LinkDiagram) -> tuple[LaurentPoly, JonesPoly]:
    """Writhe-normalized invariant f and its Jones-variable form V."""
    return normalize_bracket(bracket_by_contraction(diagram), writhe(diagram))


def normalize_bracket(bracket: LaurentPoly, w: int) -> tuple[LaurentPoly, JonesPoly]:
    """f = (-A^3)^(-w) * bracket and V, for a bracket of a diagram of writhe w."""
    f = writhe_factor(w) * bracket
    return f, to_jones_variable(f)


def add_curl(diagram: LinkDiagram, sign: int) -> LinkDiagram:
    """Insert one kink of the given sign on an arc.

    Multiplies the bracket by exactly -A^3 (sign +1) or -A^-3 (sign -1) and
    shifts the writhe by the sign, leaving f unchanged.
    """
    if sign not in (-1, 1):
        raise ValueError("curl sign must be +1 or -1")
    if diagram.is_empty:
        raise ValueError("cannot add a curl to the empty diagram")

    # Cut the lowest-numbered arc a: its second end becomes arc `fresh`, and
    # the kink joins the two through a small loop arc c.  Without crossings
    # a is `fresh` itself, made from one of the free loops.
    slots = [s for crossing in diagram.crossings for s in crossing.slots]
    fresh = max(slots, default=-1) + 1
    a = min(slots, default=fresh)
    cut = max((p for p, s in enumerate(slots) if s == a), default=-1)
    slots = [fresh if p == cut else s for p, s in enumerate(slots)]
    crossings = tuple(
        Crossing(tuple(slots[4 * i : 4 * i + 4]), crossing.sign)
        for i, crossing in enumerate(diagram.crossings)
    )
    c = fresh + 1
    kink = (c, c, a, fresh) if sign > 0 else (a, c, c, fresh)
    return LinkDiagram(crossings + (Crossing(kink, sign),), diagram.free_loops - (not slots))


def mirror_diagram(diagram: LinkDiagram) -> LinkDiagram:
    """Swap over- and under-strands everywhere and flip all signs.

    Sends the bracket <K>(A) to <K>(A^-1).
    """
    crossings = tuple(
        Crossing((c.slots[1], c.slots[2], c.slots[3], c.slots[0]), -c.sign)
        for c in diagram.crossings
    )
    return LinkDiagram(crossings, diagram.free_loops)


def diagram_to_json(diagram: LinkDiagram) -> dict:
    return {
        "crossings": [{"slots": list(c.slots), "sign": c.sign} for c in diagram.crossings],
        "free_loops": diagram.free_loops,
    }


def _json_int(value) -> int:
    """``value`` itself if it is a JSON integer; a float, bool or string is
    rejected, not rounded (bool is an int subclass, so the type is compared)."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON integer")
    return value


def diagram_from_json(data: dict) -> LinkDiagram:
    try:
        crossings = tuple(
            Crossing(tuple(map(_json_int, entry["slots"])), _json_int(entry["sign"]))
            for entry in data["crossings"]
        )
        diagram = LinkDiagram(crossings, _json_int(data.get("free_loops", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed diagram JSON: {exc}") from exc
    if diagram.is_empty:
        raise ParseError("the diagram is empty: no crossings and no free loops")
    return diagram
