"""Braid words, their Temperley-Lieb images, and bracket evaluation by trace
or by contraction of the closure.

A braid word on n strands is a sequence of nonzero integers g with
1 <= |g| <= n-1; positive g means the Artin generator sigma_|g|, negative its
inverse.  The representation used throughout is

    rho(sigma_i)    = A * 1 + A^-1 * U_i
    rho(sigma_i^-1) = A^-1 * 1 + A * U_i

which makes the two images inverse to each other in TL_n.  The bracket of the
standard closure is recovered from the Markov trace: TR(rho(b)) equals
delta * <closure(b)>.  The closure of a TL diagram has at least one loop, so
the bracket is summed directly with one factor of delta fewer per loop, and
a diagram that closes to no loop fails a runtime check.

The trace is invariant under the braid relations and Markov's moves, so
``closure_bracket``, which serves braid input on the command line, first
rewrites a word of 4 or more strands to a shorter one on no more strands
(``_simplify``), applying until none fires: far cancellation (sigma_i^e meets
a later sigma_i^-e across letters j with |j - i| >= 2, which commute with
it), the same across the word's end (conjugation), and destabilization of a
top or bottom generator used once, which deletes that letter and its strand
and leaves a curl -A^(+-3).  It does so only when a bound on (n, L) alone
proves that the given word passes both ``MAX_TL_COST`` checks, so every word
the guards stop reaches them as given.  Words of at most 3 strands are
traced as given: TL_3 has 5 diagrams, so the rewrite would cost more than it
saves.  ``bracket_via_trace``, ``rho_tl`` and the other representations take
the word as given, so the tests check the rewrite against them.

Then ``closure_bracket`` picks the cheaper of two exact engines for the
shortened word.  Every cut of the fold carries 2n open ends, while a closure
contracted crossing by crossing in the greedy order of
``diagram._contraction_steps`` may carry far fewer: the torus words
(sigma_1 ... sigma_(n-1))^k close to T(n, k) = T(k, n).  So the closure is
contracted when it passes the contraction's size guards and its widest cut
has at most as many open ends as the word has strands; otherwise the word is
traced.  The curl multiplies either engine's bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .diagram import Crossing, LinkDiagram, _contract, _contraction_steps, _oversize, writhe_factor
from .errors import InvariantError, ParseError, SizeLimitError
from .laurent import (
    LaurentPoly,
    _TRIAL_BITS,
    _room,
    _times_delta,
    _unpack,
    _widen,
)
from .tl import TLDiagram, TLElement, diagram_table, discard_table

__all__ = [
    "BraidWord",
    "parse_braid",
    "exponent_sum",
    "rho_tl",
    "bracket_via_trace",
    "closure_bracket",
    "closure_to_diagram",
]

#: Cost guard of the TL fold, in machine words, checked before each letter on
#: the largest state the letter can make: twice the live diagrams (a letter
#: at most doubles them), each holding 2n boundary points and a packed
#: coefficient of 3L+1 digits.  The 6-9 strand, 16-30 letter words of the
#: benchmark's trace-wide workload reach at most 470,896 (a 9-strand,
#: 30-letter word), under a tenth of this.  ``bracket_via_trace`` also
#: bounds its Horner loop, counted as n+1 steps (one more than it takes) on
#: a packed integer of 3L+1+2n digits, before the fold at the first width
#: and after it at the last, which bounds wide words that leave the fold
#: small and builds no table for the widest.
MAX_TL_COST = 5_000_000


@dataclass(frozen=True, slots=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be at least 1")
        # Three C passes; a set of the letters would collide on nearly every
        # insert, as hash(-1) == hash(-2) in CPython.
        letters, top = self.letters, self.strands - 1
        if letters and (min(letters) < -top or max(letters) > top or 0 in letters):
            g = next(g for g in letters if g == 0 or abs(g) > top)
            raise ValueError(
                f"letter {g} invalid for {self.strands} strands (need 1 <= |letter| <= {top})"
            )

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.letters)


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices into a BraidWord."""
    return _parse_tokens(text.split(), strands)


def _parse_tokens(tokens: list[str], strands: int, distinct: set[str] | None = None) -> BraidWord:
    """parse_braid on the tokens of a text already split at whitespace;
    ``distinct``, when given, is ``set(tokens)``.
    """
    if strands < 1:
        raise ParseError("strand count must be at least 1")
    try:
        # A long word repeats a few tokens: int() runs once on each.
        value = {token: int(token) for token in (set(tokens) if distinct is None else distinct)}
        return BraidWord(strands, tuple(map(value.__getitem__, tokens)))
    except ValueError:
        pass
    # Only a word that fails walks its tokens, to name the first bad one.
    for pos, token in enumerate(tokens, start=1):
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


def exponent_sum(b: BraidWord) -> int:
    """Sum of letter signs; equals the writhe of the standard closure."""
    return sum(1 if g > 0 else -1 for g in b.letters)


def _fold(b: BraidWord):
    """A^(3L) rho(b) for the L letters of b, packed: ``(table, state, bits)``.

    ``state`` maps ids of the diagram table of TL_n to coefficients in the
    packed form of ``laurent`` (polynomials in B = A^2 at B = 2^bits);
    diagrams whose coefficient cancels to 0 are dropped.  Each letter at
    most doubles the sum of the coefficients' absolute values: d·U_i is
    either another diagram, or delta d when d caps the points U_i caps,
    where d's two terms combine to (A + A^-1 delta) d = -A^-3 d.  So the
    state sums to at most 2^L, and the trace of ``bracket_via_trace``, which
    multiplies by delta^(m-1) for m <= n, to below 2^n 2^L: L + n + 2 bits are
    always enough.  Real coefficients are often far smaller (those
    of 2-strand words grow linearly), so for a word of more than about 64
    letters a narrower width is tried first and checked as the fold goes
    (``_room``); when it runs out of room, the state, exact until then, is
    re-packed at twice the width and the fold goes on from the same letter.
    """
    n, length = b.strands, len(b.letters)
    window = 3 * length + 1
    bits, proven = _widths(n, length)
    table = diagram_table(n)
    state, safe = {table.identity: 1}, 0
    try:
        for done, g in enumerate(b.letters):
            while done == safe and bits < proven:
                room = _room(state, bits, n, window)
                safe += room
                if not room:
                    wider = min(2 * bits, proven)
                    state = {d: _widen(x, bits, wider) for d, x in state.items()}
                    bits = wider
            if _fold_cost(len(state), n, bits, window) > MAX_TL_COST:
                raise SizeLimitError(
                    f"TL product of {length} letters on {n} strands exceeds the "
                    f"{MAX_TL_COST} cost guard at {len(state)} live diagrams"
                )
            # A^3 rho(sigma_i) = B^2*1 + B*U_i, A^3 rho(sigma_i^-1) = B*1 + B^2*U_i.
            # When d caps the points U_i caps, d·U_i = delta d and the two
            # terms are one: (B^2 - B^2 - 1) d = -d, or (B - B^3 - B) d = -B^3 d.
            i = abs(g)
            action = table.actions[i]
            keep, through, loop = (2 * bits, bits, 0) if g > 0 else (bits, 2 * bits, 3 * bits)
            out: dict[int, int] = {}
            for d, x in state.items():
                e = action.get(d)
                if e is None:
                    e = table.act(i, d)
                if e == d:
                    out[d] = out.get(d, 0) - (x << loop)
                else:
                    out[d] = out.get(d, 0) + (x << keep)
                    out[e] = out.get(e, 0) + (x << through)
            state = {d: x for d, x in out.items() if x}
    except SizeLimitError:
        # A guarded fold interned up to MAX_TL_COST's worth of diagrams that
        # no later word may need; dropping the table frees them.
        discard_table(n)
        raise
    return table, state, bits


def _widths(n: int, length: int) -> tuple[int, int]:
    """The fold's first digit width and its proven one, L + n + 2."""
    return min(length + n + 2, n + _TRIAL_BITS), length + n + 2


def _fold_cost(live: int, n: int, bits: int, window: int) -> int:
    """The fold's cost before a letter (``MAX_TL_COST``)."""
    return 2 * live * (2 * n + bits * window // 64)


def _trace_cost(n: int, length: int, bits: int) -> int:
    """A bound on the cost of the trace's Horner loop: n+1 steps, one more
    than it takes, on 3L+1+2n digits."""
    return (n + 1) * (3 * length + 1 + 2 * n) * bits // 64


def _check_trace_cost(b: BraidWord, bits: int) -> None:
    """Raise SizeLimitError when the trace's Horner loop at this digit width
    exceeds MAX_TL_COST."""
    n, length = b.strands, len(b.letters)
    if _trace_cost(n, length, bits) > MAX_TL_COST:
        raise SizeLimitError(
            f"trace of {length} letters on {n} strands exceeds the "
            f"{MAX_TL_COST} cost guard at {bits}-bit digits"
        )


def rho_tl(b: BraidWord) -> TLElement:
    """Image of the braid word in TL_n."""
    n = b.strands
    table, state, bits = _fold(b)
    low = -3 * len(b.letters)
    combo = {TLDiagram(n, table.pairings[d]): _unpack(x, bits, low) for d, x in state.items()}
    return TLElement(n, combo)


def closure_bracket(b: BraidWord) -> tuple[LaurentPoly, str]:
    """Bracket polynomial of the standard closure and the engine that made
    it: "contracted" or "trace" (module docstring)."""
    if b.strands <= 3 or not _within_guards(b.strands, len(b.letters)):
        return bracket_via_trace(b), "trace"
    w, curl = _simplify(b)
    slots, free_loops = _closure(w)
    steps = None if _oversize(len(slots), free_loops) else _contraction_steps(slots)
    if steps is not None and max((len(frontier) for _, frontier in steps), default=0) <= w.strands:
        bracket, engine = _contract(steps, free_loops), "contracted"
    else:
        bracket, engine = bracket_via_trace(w), "trace"
    return writhe_factor(-curl) * bracket, engine


def _within_guards(n: int, length: int) -> bool:
    """Whether every word of ``length`` letters on ``n`` strands passes both
    MAX_TL_COST checks: each at the proven width L+n+2, the fold's with at
    most min(2^L, Catalan(n)) live diagrams.  The trace's is tested first,
    so a huge n forms no Catalan number."""
    bits = _widths(n, length)[1]
    if _trace_cost(n, length, bits) > MAX_TL_COST:
        return False
    live = min(1 << length, comb(2 * n, n) // (n + 1))
    return _fold_cost(live, n, bits, 3 * length + 1) <= MAX_TL_COST


def _simplify(b: BraidWord) -> tuple[BraidWord, int]:
    """A word w and a curl c with <closure(b)> = (-A^3)^c <closure(w)>,
    w on no more strands and letters than b (module docstring).

    An untouched top or bottom strand is a free loop: it stays as an
    untouched top strand, so the trace counts it as it does in b.
    """
    letters, strands, free, curl = list(b.letters), b.strands, 0, 0
    while True:
        before = len(letters), strands
        stack: list[int] = []
        for g in letters:
            _push(stack, g)
        # One turn of conjugations: each first letter moves to the end.
        head, turn = 0, len(stack)
        while head < min(turn, len(stack)):
            head += 1
            _push(stack, stack[head - 1], head)
        letters = stack[head:]
        while strands > 1:
            # The top generator, then the bottom one: if used at most once,
            # it goes, and its strand with it (or moves to the top, free).
            for i in (strands - 1, 1):
                uses = [k for k, g in enumerate(letters) if abs(g) == i]
                if len(uses) < 2:
                    break
            else:
                break
            if uses:
                curl += 1 if letters[uses[0]] > 0 else -1
                del letters[uses[0]]
            else:
                free += 1
            if i == 1:
                letters = [g - 1 if g > 0 else g + 1 for g in letters]
            strands -= 1
        if (len(letters), strands) == before:
            return BraidWord(strands + free, tuple(letters)), curl


def _push(stack: list[int], g: int, floor: int = 0) -> None:
    """Append g to the word ``stack[floor:]``, or delete the nearest -g in it
    when every letter after that one commutes with g (is two or more
    generators away)."""
    i = abs(g)
    for k in range(len(stack) - 1, floor - 1, -1):
        if stack[k] == -g:
            del stack[k]
            return
        if abs(abs(stack[k]) - i) < 2:
            break
    stack.append(g)


def bracket_via_trace(b: BraidWord) -> LaurentPoly:
    """Bracket polynomial of the standard closure, from the Markov trace of
    b's letters as given.

    TR(rho(b)) = sum over m of S_m delta^m, S_m the sum of the coefficients
    of the diagrams whose closure has m loops, and the bracket is
    TR / delta = sum over m >= 1 of S_m delta^(m-1).  Every closure has a
    loop, so a nonzero S_0 signals a bug and raises InvariantError.
    """
    n = b.strands
    # The trace's width is never below the fold's first one, so a word too
    # wide to trace stops here, before TL_n's table is built.
    _check_trace_cost(b, _widths(n, len(b.letters))[0])
    table, state, bits = _fold(b)
    by_loops = [0] * (n + 1)
    for d, x in state.items():
        by_loops[table.closure_loops(d)] += x
    if by_loops[0]:
        raise InvariantError(
            f"trace of {len(b.letters)} letters on {n} strands: a TL diagram closes to no loop"
        )
    _check_trace_cost(b, bits)
    # With delta = -B^-1 (B^2 + 1), Horner's rule over m = n .. 1 gives
    # B^(n-1) <closure(b)> in packed form: each step multiplies by
    # B delta = -(B^2 + 1) and adds B^(n-m) S_m.
    packed = 0
    for m in range(n, 0, -1):
        packed = (by_loops[m] << (n - m) * bits) + _times_delta(packed << bits, bits)
    return _unpack(packed, bits, -3 * len(b.letters) - 2 * n + 2)


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
    slots, free_loops = _closure(b)
    crossings = tuple(Crossing(s, 1 if g > 0 else -1) for s, g in zip(slots, b.letters))
    return LinkDiagram(crossings, free_loops)


def _closure(b: BraidWord) -> tuple[tuple[tuple[int, int, int, int], ...], int]:
    """The slots of each crossing of ``closure_to_diagram(b)`` and its free
    loops, without the diagram's checks: the closure is planar by
    construction."""
    n = b.strands
    current = list(range(n))
    next_label = n
    raw: list[tuple[int, int, int, int]] = []
    for g in b.letters:
        i = abs(g)
        left_in, right_in = current[i - 1], current[i]
        left_out, right_out = next_label, next_label + 1
        next_label += 2
        if g > 0:
            raw.append((left_in, left_out, right_out, right_in))
        else:
            raw.append((right_in, left_in, left_out, right_out))
        current[i - 1], current[i] = left_out, right_out

    # Close up: the final arc at each strand position is the initial one.
    # current[k] is k or a label that occurs nowhere else, so renaming it
    # to k joins the two.
    closing = {current[k]: k for k in range(n)}
    slots = tuple(tuple(closing.get(s, s) for s in crossing) for crossing in raw)
    free_loops = sum(1 for k in range(n) if current[k] == k)
    return slots, free_loops
