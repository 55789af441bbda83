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
and leaves a curl -A^(+-3).  Last, a word that is c^k with 2 <= k < n, up
to far commutation, for a period c that uses each generator once with one
sign e, becomes (sigma_1 ... sigma_(k-1))^n on k strands with a curl of
e(n - k): both close to the torus link T(n, k) = T(k, n).  The rewrite runs
only when a bound on (n, L) alone proves that the given word passes both
``MAX_TL_COST`` checks, so every word the guards stop reaches them as
given.  Words of at most 3 strands are traced as given: TL_3 has 5
diagrams, so the rewrite would cost more than it saves.
``bracket_via_trace``, ``rho_tl`` and the other representations take the
word as given, so the tests check the rewrite against them.

Then ``closure_bracket`` picks the cheaper of two exact engines for the
shortened word.  Every cut of the fold carries 2n open ends, while a closure
contracted crossing by crossing in the greedy order of
``diagram._contraction_steps`` may carry far fewer.  So a closure within
the contraction's size guards is swept until a cut has more open ends than
the word has strands, and then the word is traced; a closure swept to the
end is contracted.  The curl multiplies either engine's bracket.
"""

from __future__ import annotations

from math import comb

from ._record import Record, set_field
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


class BraidWord(Record):
    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...]):
        set_field(self, "strands", strands)
        set_field(self, "letters", letters)
        if strands < 1:
            raise ValueError("strand count must be at least 1")
        # Three C passes; a set of the letters would collide on nearly every
        # insert, as hash(-1) == hash(-2) in CPython.
        top = strands - 1
        if letters and (min(letters) < -top or max(letters) > top or 0 in letters):
            g = next(g for g in letters if g == 0 or abs(g) > top)
            raise ValueError(f"letter {g} invalid for {strands} strands (need 1 <= |letter| <= {top})")

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
        # A long word repeats a few tokens: int() runs once on each, and
        # each value is range-checked once, so the word skips
        # BraidWord.__init__'s passes over its letters.
        value = {token: int(token) for token in (set(tokens) if distinct is None else distinct)}
    except ValueError:
        pass
    else:
        if all(0 < abs(g) < strands for g in value.values()):
            word = object.__new__(BraidWord)
            set_field(word, "strands", strands)
            set_field(word, "letters", tuple(map(value.__getitem__, tokens)))
            return word
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

    Each letter reads each live diagram once and skips a coefficient that
    an earlier letter cancelled to 0, so no letter copies its state to drop
    the zeros.  They are dropped only where the state's size is read, which
    is where a zero would change a result: before ``_room``, whose bound
    grows with the number of diagrams; when the count passes the cost
    guard's cap, so the guard compares and names live diagrams only; and at
    the end, so ``rho_tl`` and the trace see live diagrams only.
    """
    n, length = b.strands, len(b.letters)
    window = 3 * length + 1
    bits, proven = _widths(n, length)
    table = diagram_table(n)
    actions, act = table.actions, table.act
    state, safe = {table.identity: 1}, 0
    cap = _live_cap(n, bits, window)
    for done, g in enumerate(b.letters):
        while done == safe and bits < proven:
            state = _live(state)
            room = _room(state, bits, n, window)
            safe += room
            if not room:
                wider = min(2 * bits, proven)
                state = {d: _widen(x, bits, wider) for d, x in state.items()}
                bits = wider
                cap = _live_cap(n, bits, window)
        if len(state) > cap:
            state = _recount(state, cap, n, length)
        # A^3 rho(sigma_i) = B^2*1 + B*U_i, A^3 rho(sigma_i^-1) = B*1 + B^2*U_i.
        # When d caps the points U_i caps, d·U_i = delta d and the two
        # terms are one: (B^2 - B^2 - 1) d = -d, or (B - B^3 - B) d = -B^3 d.
        if g > 0:
            i, keep, through, loop = g, 2 * bits, bits, 0
        else:
            i, keep, through, loop = -g, bits, 2 * bits, 3 * bits
        action = actions[i]
        out: dict[int, int] = {}
        for d, x in state.items():
            if x:
                e = action.get(d)
                if e is None:
                    e = act(i, d)
                if e == d:
                    out[d] = out.get(d, 0) - (x << loop)
                else:
                    out[d] = out.get(d, 0) + (x << keep)
                    out[e] = out.get(e, 0) + (x << through)
        state = out
    return table, _live(state), bits


def _live(state: dict[int, int]) -> dict[int, int]:
    """The entries of a fold's state whose coefficient is not 0."""
    return {d: x for d, x in state.items() if x}


def _recount(state: dict[int, int], cap: int, n: int, length: int) -> dict[int, int]:
    """``_live(state)`` for a state of more than ``cap`` entries, when at
    most ``cap`` of them are live; otherwise the fold's cost guard trips.

    No braid word searched so far held more entries before a letter than
    live diagrams before or after the letter before it, so zeros have not
    yet changed where the guard trips; the guard's bound does not rely on
    that."""
    state = _live(state)
    if len(state) > cap:
        # The fold interned up to MAX_TL_COST's worth of diagrams that no
        # later word may need; dropping the table frees them.
        discard_table(n)
        raise SizeLimitError(
            f"TL product of {length} letters on {n} strands exceeds the "
            f"{MAX_TL_COST} cost guard at {len(state)} live diagrams"
        )
    return state


def _widths(n: int, length: int) -> tuple[int, int]:
    """The fold's first digit width and its proven one, L + n + 2."""
    return min(length + n + 2, n + _TRIAL_BITS), length + n + 2


def _fold_cost(live: int, n: int, bits: int, window: int) -> int:
    """The fold's cost before a letter (``MAX_TL_COST``)."""
    return 2 * live * (2 * n + bits * window // 64)


def _live_cap(n: int, bits: int, window: int) -> int:
    """The most live diagrams the fold may hold before a letter: as
    ``_fold_cost`` is linear in their count, it exceeds MAX_TL_COST exactly
    when the count exceeds this."""
    return MAX_TL_COST // _fold_cost(1, n, bits, window)


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
    steps = None if _oversize(len(slots), free_loops) else _contraction_steps(slots, w.strands)
    if steps is None:
        return writhe_factor(-curl) * bracket_via_trace(w), "trace"
    return writhe_factor(-curl) * _contract(steps, free_loops), "contracted"


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
    untouched top strand, so the trace counts it as it does in b.  The
    torus move runs once, after the others: (sigma_1 ... sigma_(k-1))^n
    has n > k turns of k-1 letters, so no move applies to it.
    """
    letters, strands, free, curl = list(b.letters), b.strands, 0, 0
    while True:
        stack: list[int] = []
        for g in letters:
            _push(stack, g)
        # One turn of conjugations: each first letter moves to the end.
        head, turn = 0, len(stack)
        while head < min(turn, len(stack)):
            head += 1
            _push(stack, stack[head - 1], head)
        letters, prior = stack[head:], strands
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
        # The stack leaves no far pair and the turn no pair across the end,
        # so only a strand gone can let another cancellation fire.
        if strands == prior:
            break
    # c^k, for a period c that uses each generator once with one sign e, up
    # to far commutation: sigma_i^e and sigma_(i+1)^e alternate, k of each,
    # for every i.  Its closure is the torus link T(n, k) = T(k, n), the
    # closure of (sigma_1 ... sigma_(k-1))^n: c is conjugate to
    # sigma_1 ... sigma_(n-1), and the writhe drops by e(n - k).
    sign = 1 if letters and letters[0] > 0 else -1
    k, rest = divmod(len(letters), strands - 1) if strands > 2 else (0, 1)
    pairs = ([g for g in letters if g == sign * i or g == sign * (i + 1)] for i in range(1, strands - 1))
    if not rest and 2 <= k < strands and all(
        len(p) == 2 * k and p[0] != p[1] and p == p[:2] * k for p in pairs
    ):
        curl += sign * (strands - k)
        letters, strands = [sign * i for i in range(1, k)] * strands, k
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
    first = _widths(n, len(b.letters))[0]
    _check_trace_cost(b, first)
    table, state, bits = _fold(b)
    by_loops = [0] * (n + 1)
    for d, x in state.items():
        by_loops[table.closure_loops(d)] += x
    if by_loops[0]:
        raise InvariantError(
            f"trace of {len(b.letters)} letters on {n} strands: a TL diagram closes to no loop"
        )
    if bits > first:
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
