import functools
import random
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidket.braid
from braidket import (
    A,
    A_INV,
    DELTA,
    BraidWord,
    LaurentPoly,
    TLElement,
    bracket_by_contraction,
    bracket_state_sum,
    bracket_via_trace,
    closure_to_diagram,
    exponent_sum,
    generator_diagram,
    markov_trace,
    multiply,
    parse_braid,
    rho_tl,
)
from braidket.braid import closure_bracket
from braidket.errors import ExactDivisionError, ParseError, SizeLimitError
from braidket.laurent import _ones, _over_delta, _room, _times_delta, _unpack, _widen
from braidket.matrixrep import exact_factor
from braidket.diagram import _contraction_steps, _oversize, normalize_bracket, writhe_factor
from conftest import braid_words, plant_cancelling_pairs, random_words, torus_knot_jones, with_cancelling_pairs

TREFOIL_BRACKET = LaurentPoly({5: -1, -3: -1, -7: 1})


def reference_rho(word: BraidWord) -> TLElement:
    """rho(b) as a fold of TLElement products, one multiply per letter."""
    n = word.strands

    def factor(g):
        u = TLElement.from_diagram(generator_diagram(n, abs(g)))
        return exact_factor(TLElement.identity(n), u, g)

    return functools.reduce(multiply, map(factor, word.letters), TLElement.identity(n))


class TestParsing:
    def test_basic(self):
        assert parse_braid("1 1 1", 2) == BraidWord(2, (1, 1, 1))

    def test_inverse_letters(self):
        assert parse_braid("1 -2", 3) == BraidWord(3, (1, -2))

    def test_empty_word(self):
        assert parse_braid("", 2) == BraidWord(2, ())
        assert parse_braid("   ", 2) == BraidWord(2, ())

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="token 1"):
            parse_braid("3", 3)

    def test_zero_letter(self):
        with pytest.raises(ParseError, match="nonzero"):
            parse_braid("1 0", 3)

    def test_non_integer(self):
        with pytest.raises(ParseError, match="token 2"):
            parse_braid("1 x", 3)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError, match="^strand count must be at least 1$"):
            BraidWord(0, ())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 x 0 5", "token 2: 'x' is not an integer"),
            ("1 -5 x 0", "token 2: generator -5 out of range"),
            ("2 0 x 5", "token 2: generator index must be nonzero"),
        ],
    )
    def test_first_bad_token_is_named(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_braid(text, 3)
        assert str(raised.value).startswith(message)

    def test_first_bad_letter_is_named(self):
        with pytest.raises(ValueError) as raised:
            BraidWord(3, (1, 5, -4, 0, 5))
        assert str(raised.value) == "letter 5 invalid for 3 strands (need 1 <= |letter| <= 2)"

    # The letter check takes max, min and a search for 0: each of the last
    # three tails trips one of them alone, and the first bad letter is named.
    @pytest.mark.parametrize(
        "tail, bad", [((3, 0), 3), ((0, -3), 0), ((-2, 3), 3), ((2, -3), -3), ((2, 0), 0)]
    )
    def test_first_bad_letter_of_a_long_word_is_named(self, tail, bad):
        with pytest.raises(ValueError) as raised:
            BraidWord(3, (1,) * 5000 + tail)
        assert str(raised.value) == f"letter {bad} invalid for 3 strands (need 1 <= |letter| <= 2)"

    def test_valid_letters_at_the_bounds(self):
        assert BraidWord(3, (1,) * 5000 + (-2, 2)).letters[-2:] == (-2, 2)
        assert BraidWord(1, ()).letters == ()


class TestExponentSum:
    def test_positive_word(self):
        assert exponent_sum(BraidWord(2, (1, 1, 1))) == 3

    def test_mixed_word(self):
        assert exponent_sum(BraidWord(3, (1, -2))) == 0

    def test_empty(self):
        assert exponent_sum(BraidWord(2, ())) == 0


class TestTLRepresentation:
    def test_single_generator(self):
        expected = TLElement.identity(2).scale(A) + TLElement.from_diagram(
            generator_diagram(2, 1)
        ).scale(A_INV)
        assert rho_tl(BraidWord(2, (1,))) == expected

    def test_inverse_pair(self):
        assert rho_tl(BraidWord(2, (1, -1))) == TLElement.identity(2)

    def test_squared_generator(self):
        u = TLElement.from_diagram(generator_diagram(2, 1))
        expected = TLElement.identity(2).scale(LaurentPoly.monomial(2)) + u.scale(
            LaurentPoly({0: 1, -4: -1})
        )
        assert rho_tl(BraidWord(2, (1, 1))) == expected

    def test_braid_relations(self):
        for n in range(3, 6):
            for i in range(1, n - 1):
                lhs = rho_tl(BraidWord(n, (i, i + 1, i)))
                rhs = rho_tl(BraidWord(n, (i + 1, i, i + 1)))
                assert lhs == rhs
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert rho_tl(BraidWord(n, (i, j))) == rho_tl(BraidWord(n, (j, i)))
                assert rho_tl(BraidWord(n, (i, -i))) == TLElement.identity(n)


class TestPackedFold:
    """The packed integer fold against the TLElement reference fold."""

    @given(braid_words(max_strands=6, max_length=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_fold(self, word):
        self.check_against_reference(word)

    # Planted pairs sigma_i sigma_i^-1 cancel coefficients to 0 mid-fold,
    # which the fold keeps until it reads a count or ends.
    @given(with_cancelling_pairs(braid_words(max_strands=6)))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_fold_with_cancelling_pairs(self, word):
        self.check_against_reference(word)

    @staticmethod
    def check_against_reference(word):
        expected = reference_rho(word)
        assert rho_tl(word) == expected
        assert bracket_via_trace(word) == markov_trace(expected).divexact(DELTA)
        state = braidket.braid._fold(word)[1]
        assert len(state) == len(expected.combo)
        assert all(state.values())

    def test_cancelled_diagrams_are_dropped(self):
        # After 1 -1 the U_1 coefficient is 0; it must not stay live.
        # The word is 1, so its packed state is A^24 = B^12 on the identity.
        word = BraidWord(8, (1, -1, 3, -3, 5, -5, 7, -7))
        table, state, bits = braidket.braid._fold(word)
        assert state == {table.identity: 1 << 12 * bits}

    def test_coefficients_past_a_machine_word(self):
        word = BraidWord(3, (1, -2) * 56)
        expected = reference_rho(word)
        largest = max(abs(c.real) for coeff in expected.combo.values() for _, c in coeff)
        assert largest > 2**64
        # The trial width runs out of room, and the fold goes on wider.
        assert braidket.braid._fold(word)[2] > 3 + braidket.braid._TRIAL_BITS
        assert rho_tl(word) == expected
        assert bracket_via_trace(word) == markov_trace(expected).divexact(DELTA)

    def test_long_two_strand_word_keeps_its_trial_width(self):
        word = BraidWord(2, (1, 1, -1, 1) * 50)
        assert braidket.braid._fold(word)[2] == 2 + braidket.braid._TRIAL_BITS
        expected = reference_rho(word)
        assert rho_tl(word) == expected
        assert bracket_via_trace(word) == markov_trace(expected).divexact(DELTA)

    @pytest.fixture
    def widening(self, monkeypatch):
        """A 3-strand, 300-letter word whose trial width of 35 bits runs out
        of room twice, and a list of (bits, state, room) per ``_room`` call."""
        monkeypatch.setattr(braidket.braid, "_TRIAL_BITS", 32)
        calls, room = [], braidket.braid._room

        def recorded(state, bits, n, window):
            calls.append((bits, dict(state), room(state, bits, n, window)))
            return calls[-1][2]

        monkeypatch.setattr(braidket.braid, "_room", recorded)
        rng = random.Random(1)
        return BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(300))), calls

    def test_widened_fold_matches_reference(self, widening):
        word, calls = widening
        expected = reference_rho(word)
        assert rho_tl(word) == expected
        assert [bits for bits, _, room in calls if not room] == [35, 70]
        assert braidket.braid._fold(word)[2] == 140
        assert bracket_via_trace(word) == markov_trace(expected).divexact(DELTA)

    def test_room_sees_live_diagrams_only(self, widening):
        # _room's bound grows with the diagrams it is given, so a zero left
        # by a cancelling pair must not reach it.
        word, calls = widening
        planted = plant_cancelling_pairs(random.Random(2), word, 30)
        assert rho_tl(planted) == reference_rho(planted)
        assert len(calls) > 100
        assert all(all(state.values()) for _, state, _ in calls)
        assert [bits for bits, _, room in calls if not room] == [35, 70]

    def test_widening_goes_on_from_the_same_letter(self, widening):
        word, calls = widening
        table = braidket.braid._fold(word)[0]
        assert sum(1 for _, state, room in calls if not room) == 2
        # The fold starts once: only the first check sees {identity: 1}.
        starts = [bits for bits, state, _ in calls if state == {table.identity: 1}]
        assert starts == [35]

    def test_the_cost_guard_follows_the_widened_digits(self, widening, monkeypatch):
        # A live diagram costs more at wider digits: 5 of them pass the guard
        # at 35 and 70 bits but not at 140 under a limit just below their
        # cost there.
        word, _ = widening
        limit = braidket.braid._fold_cost(5, 3, 140, 3 * len(word.letters) + 1)
        monkeypatch.setattr(braidket.braid, "MAX_TL_COST", limit)
        assert braidket.braid._fold(word)[2] == 140
        monkeypatch.setattr(braidket.braid, "MAX_TL_COST", limit - 1)
        with pytest.raises(SizeLimitError, match="at 5 live diagrams"):
            braidket.braid._fold(word)

    @pytest.mark.parametrize("trial_bits", [1, 6, 20])
    def test_narrow_trial_widths_restart_exactly(self, monkeypatch, trial_bits):
        monkeypatch.setattr(braidket.braid, "_TRIAL_BITS", trial_bits)
        words = random_words(8, 40, max_strands=6, max_length=12) + [BraidWord(3, (1, -2) * 20)]
        for word in words:
            expected = reference_rho(word)
            assert rho_tl(word) == expected
            assert bracket_via_trace(word) == markov_trace(expected).divexact(DELTA)


def pack(digits, bits):
    return sum(c << bits * j for j, c in enumerate(digits))


@st.composite
def packed_digits(draw):
    """``(bits, digits)`` with every digit below 2^(bits-1) in absolute value:
    zeros and both extremes among them, and often a negative top digit."""
    bits = draw(st.integers(2, 70))
    top = (1 << (bits - 1)) - 1
    digit = st.one_of(st.sampled_from((0, top, -top)), st.integers(-top, top))
    digits = draw(st.lists(digit, max_size=60))
    if draw(st.booleans()):
        digits.append(draw(st.integers(-top, -1)))
    return bits, digits


class TestWiden:
    @given(packed_digits(), st.data(), st.integers(-9, 9))
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_spacing_and_unpacks_alike(self, case, data, low):
        bits, digits = case
        wider = data.draw(st.integers(bits, 3 * bits))
        packed = pack(digits, bits)
        widened = _widen(packed, bits, wider)
        assert widened == pack(digits, wider)
        assert _unpack(widened, wider, low) == _unpack(packed, bits, low)

    def test_short_and_empty_digit_lists(self):
        assert _widen(0, 8, 24) == 0
        assert _widen(-3 + (5 << 16), 8, 24) == -3 + (5 << 48)
        assert _widen(-127 << 8, 8, 8) == -127 << 8


class TestOnes:
    @given(st.integers(1, 1100), st.integers(0, 700))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_repunit_quotient(self, bits, count):
        assert _ones(bits, count) == ((1 << bits * count) - 1) // ((1 << bits) - 1)


class TestTimesDelta:
    @given(st.integers(4, 70), st.data(), st.integers(-9, 9))
    @settings(max_examples=120, deadline=None)
    def test_multiplies_by_the_loop_value(self, bits, data, low):
        top = (1 << (bits - 3)) - 1
        digit = st.one_of(st.sampled_from((0, top, -top)), st.integers(-top, top))
        digits = [0, *data.draw(st.lists(digit, max_size=60))]
        y = pack(digits, bits)
        assert _unpack(_times_delta(y, bits), bits, low) == _unpack(y, bits, low) * DELTA
        assert _over_delta(_times_delta(y, bits), bits) == y

    @given(st.integers(4, 70), st.data(), st.integers(-9, 9))
    @settings(max_examples=120, deadline=None)
    def test_division_by_the_loop_value_is_exact_division(self, bits, data, low):
        # Digits whose absolute values sum to below 2^(bits-1), as _over_delta needs.
        count = data.draw(st.integers(0, 40))
        top = ((1 << (bits - 1)) - 1) // max(count, 1)
        digits = data.draw(st.lists(st.integers(-top, top), min_size=count, max_size=count))
        y = pack(digits, bits)
        try:
            expected = _unpack(y, bits, low).divexact(DELTA)
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError, match="left a remainder"):
                _over_delta(y, bits)
        else:
            assert _unpack(_over_delta(y, bits), bits, low) == expected

    @pytest.mark.parametrize("digits", [[1], [0, 1], [1, 0, 1, 1], [-3, 0, 3], [5, 0, 0, -5, 7]])
    def test_division_by_the_loop_value_rejects_a_remainder(self, digits):
        for bits in (4, 16, 64):
            with pytest.raises(ExactDivisionError, match="left a remainder"):
                _over_delta(pack(digits, bits), bits)


class TestUnpack:
    @given(st.integers(2, 70), st.lists(st.integers(-(2**69), 2**69), max_size=60), st.integers(-9, 9))
    @settings(max_examples=80, deadline=None)
    def test_inverts_kronecker_packing(self, bits, digits, low):
        half = 1 << (bits - 1)
        digits = [max(1 - half, min(half - 1, c)) for c in digits]
        packed = sum(c << bits * j for j, c in enumerate(digits))
        expected = LaurentPoly({low + 2 * j: c for j, c in enumerate(digits)})
        assert _unpack(packed, bits, low) == expected

    def test_extreme_digits(self):
        packed = -(7 << 0) + (7 << 4) - (7 << 12)
        assert _unpack(packed, 4, -1) == LaurentPoly({-1: -7, 1: 7, 5: -7})

    @pytest.mark.parametrize("count", [17, 40, 100])
    def test_extreme_digits_across_halves(self, count):
        digits = [(-7, 7, -7, 0)[j % 4] for j in range(count)]
        packed = sum(c << 4 * j for j, c in enumerate(digits))
        assert _unpack(packed, 4, 0) == LaurentPoly({2 * j: c for j, c in enumerate(digits)})

    @given(packed_digits(), st.integers(0, 300), st.integers(-9, 9))
    @settings(max_examples=120, deadline=None)
    def test_leading_runs_of_zero_digits(self, case, zeros, low):
        # The low zero digits go into the exponent, however many trailing
        # zero bits the lowest nonzero digit has.
        bits, digits = case
        digits = [0] * zeros + digits
        expected = LaurentPoly({low + 2 * j: c for j, c in enumerate(digits)})
        assert _unpack(pack(digits, bits), bits, low) == expected

    @pytest.mark.parametrize("bits", [2, 3, 8, 61, 64, 65, 300])
    def test_negative_top_digits(self, bits):
        top = (1 << (bits - 1)) - 1
        for digits in ([-1], [-top], [0, -1], [top, -top], [0, 0, 1, -1], [-top] * 9, [1 << (bits - 2), -1]):
            expected = LaurentPoly({2 * j - 5: c for j, c in enumerate(digits)})
            assert _unpack(pack(digits, bits), bits, -5) == expected

    @pytest.mark.parametrize("bits, count", [(2, 3000), (11, 3001), (64, 3000), (300, 3000)])
    def test_long_packs(self, bits, count):
        rng = random.Random(f"long:{bits}:{count}")
        top = (1 << (bits - 1)) - 1
        digits = [rng.choice((0, 1, -1, top, -top, rng.randint(-top, top))) for _ in range(count)]
        digits[-1] = -top
        expected = LaurentPoly({2 * j - 7: c for j, c in enumerate(digits)})
        assert _unpack(pack(digits, bits), bits, -7) == expected
        digits[:count // 2] = [0] * (count // 2)
        expected = LaurentPoly({2 * j - 7: c for j, c in enumerate(digits)})
        assert _unpack(pack(digits, bits), bits, -7) == expected

    @pytest.mark.parametrize("bits", [2, 7, 64, 100])
    def test_both_sides_of_the_switch_to_text(self, bits):
        # A pack of at most 8,192 bits is read a digit at a time, a longer
        # one from its binary text.
        top = (1 << (bits - 1)) - 1
        sides = set()
        for count in range(8192 // bits - 1, 8192 // bits + 3):
            for last in (top, -top, 1, -1):
                digits = [(j * 7919) % (2 * top + 1) - top for j in range(count - 1)] + [last]
                packed = pack(digits, bits)
                sides.add(packed.bit_length() <= 8192)
                expected = LaurentPoly({2 * j: c for j, c in enumerate(digits)})
                assert _unpack(packed, bits, 0) == expected
        assert sides == {True, False}


class TestRoom:
    BITS, N, WINDOW = 40, 3, 10

    def test_room_covers_the_largest_state_it_accepts(self):
        t = self.BITS // 2
        digits = [2**t - 1, -(2**t)] * (self.WINDOW // 2)
        state = {d: pack(digits, self.BITS) for d in range(4)}
        room = _room(state, self.BITS, self.N, self.WINDOW)
        total = len(state) * sum(abs(c) for c in digits)
        # room more letters at most double the total each, the trace 2^n.
        assert room >= 1
        assert total << (room + self.N) < 1 << (self.BITS - 1)

    @pytest.mark.parametrize("digit", [2**20, -(2**20) - 1, 2**38, 2**39 - 2**20, -(2**39) + 1])
    def test_digit_beyond_half_the_width_leaves_no_room(self, digit):
        for position in (0, 4, 9):
            digits = [0] * self.WINDOW
            digits[position] = digit
            assert _room({0: pack(digits, self.BITS)}, self.BITS, self.N, self.WINDOW) == 0


class TestCostGuard:
    def test_guard_raises_size_limit(self, monkeypatch):
        monkeypatch.setattr(braidket.braid, "MAX_TL_COST", 1_000)
        with pytest.raises(SizeLimitError, match="cost guard"):
            bracket_via_trace(BraidWord(7, (1, 3, 5, 2, 4, 6)))

    def test_live_cap_is_the_cost_boundary(self):
        cost, limit = braidket.braid._fold_cost, braidket.braid.MAX_TL_COST
        for n in range(2, 41):
            for bits in (n + 2, n + 33, n + 64, 2 * n + 128, 1088):
                for window in (1, 4, 31, 301, 3001):
                    cap = braidket.braid._live_cap(n, bits, window)
                    assert cost(cap, n, bits, window) <= limit < cost(cap + 1, n, bits, window)
                    assert cost(max(cap - 1, 0), n, bits, window) <= limit

    @pytest.mark.parametrize(
        "word",
        [
            BraidWord(5, (1, 3, 2, 4, -1, 3, 2, -4)),
            BraidWord(7, (1, 3, 5, 2, 4, 6)),
            BraidWord(4, (1, -3, 2) * 4),
            # Cancelling pairs leave zeros in the state before letters 4, 7,
            # 8 and 12; before the last, its 10 entries, 2 of them zeros, are
            # as many as its peak of 10 live diagrams before letter 11.
            BraidWord(5, (1, 3, -3, 2, 4, -4, -2, 2, 4, 1, -1, 3)),
        ],
    )
    def test_fold_stops_just_past_its_cap(self, monkeypatch, word):
        # The fold checks the live count before each letter; at a limit of
        # exactly the largest of those costs it runs, one below it stops.
        n, length = word.strands, len(word.letters)
        bits, window = braidket.braid._widths(n, length)[0], 3 * length + 1
        live = max(len(braidket.braid._fold(BraidWord(n, word.letters[:j]))[1]) for j in range(length))
        peak = braidket.braid._fold_cost(live, n, bits, window)
        monkeypatch.setattr(braidket.braid, "MAX_TL_COST", peak)
        expected = braidket.braid._fold(word)[1]
        monkeypatch.setattr(braidket.braid, "MAX_TL_COST", peak - 1)
        with pytest.raises(SizeLimitError, match=f"at {live} live diagrams"):
            braidket.braid._fold(word)
        assert expected

    def test_guard_counts_live_diagrams(self):
        # A letter's zeros stay in the state until a count is read: once its
        # entries pass the cap, the guard recounts the live ones and names them.
        state = {0: 5, 1: 0, 2: -3, 3: 0, 4: 1}
        assert braidket.braid._recount(state, 3, 4, 6) == {0: 5, 2: -3, 4: 1}
        with pytest.raises(SizeLimitError, match="on 4 strands exceeds the 5000000 cost guard at 3 live diagrams"):
            braidket.braid._recount(state, 2, 4, 6)

    def test_widest_torus_word_fits_ten_times_over(self, monkeypatch):
        # (sigma_1 ... sigma_8)^3 ends with 3,281 live diagrams, the most of
        # any 6-9 strand, 16-30 letter word the benchmark draws.
        monkeypatch.setattr(braidket.braid, "MAX_TL_COST", braidket.braid.MAX_TL_COST // 10)
        word = BraidWord(9, tuple(range(1, 9)) * 3)
        assert len(rho_tl(word).combo) == 3281


class TestTraceGuard:
    # The widest empty word whose trace stays within MAX_TL_COST, as README
    # states: (n+1) Horner steps on (2n+1) digits of n+2 bits.
    WIDEST = 541

    def test_widest_empty_word_runs(self):
        m = self.WIDEST - 1
        expected = LaurentPoly({2 * m - 4 * j: (-1) ** m * comb(m, j) for j in range(m + 1)})
        assert bracket_via_trace(BraidWord(self.WIDEST, ())) == expected

    @pytest.mark.parametrize("strands", [WIDEST + 1, 4000])
    def test_wider_empty_word_exits_at_the_guard(self, strands):
        with pytest.raises(SizeLimitError, match="cost guard"):
            bracket_via_trace(BraidWord(strands, ()))


class TestBracketViaTrace:
    def test_unknot(self):
        assert bracket_via_trace(BraidWord(1, ())) == LaurentPoly.one()

    def test_single_positive_curl(self):
        assert bracket_via_trace(BraidWord(2, (1,))) == LaurentPoly.monomial(3, -1)

    def test_trefoil(self):
        assert bracket_via_trace(BraidWord(2, (1, 1, 1))) == TREFOIL_BRACKET

    @given(braid_words(max_strands=4, max_length=6))
    @settings(max_examples=40, deadline=None)
    def test_real_coefficients(self, word):
        assert all(type(c) is int for _, c in bracket_via_trace(word).terms())

    # The trace sums the bracket directly, one factor of delta fewer per
    # loop; the exact quotient of the whole Markov trace is the oracle.
    @given(braid_words(min_strands=1, max_strands=7, max_length=16))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_is_the_markov_trace_divided_by_delta(self, word):
        assert bracket_via_trace(word) == markov_trace(rho_tl(word)).divexact(DELTA)

    # The Markov moves are checked on the trace of the words as given:
    # closure_bracket would rewrite both sides to the same word.
    def test_markov_stabilization(self):
        for word in random_words(5, 25, max_strands=4, max_length=6):
            n = word.strands
            base = bracket_via_trace(word)
            up = BraidWord(n + 1, word.letters + (n,))
            down = BraidWord(n + 1, word.letters + (-n,))
            assert bracket_via_trace(up) == LaurentPoly.monomial(3, -1) * base
            assert bracket_via_trace(down) == LaurentPoly.monomial(-3, -1) * base

    def test_conjugation_invariance(self, rng):
        for word in random_words(6, 20, max_strands=4, max_length=5):
            n = word.strands
            g = rng.choice([s * i for i in range(1, n) for s in (1, -1)])
            conjugated = BraidWord(n, (g,) + word.letters + (-g,))
            assert bracket_via_trace(conjugated) == bracket_via_trace(word)


@st.composite
def torus_type_words(draw):
    """``(word, k)``: c^k on n strands, 2 <= k < n, for a period c that uses
    each generator once in a drawn order with one drawn sign, conjugated by
    a letter, given a cancelling pair and perhaps stabilized at the top or
    the bottom, so ``_simplify`` must expose c^k first.  In half the words
    c^k is spoiled, so that c repeats a generator or mixes signs, or two
    neighbouring letters swap places; k is then None."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(2, n - 1))
    sign = draw(st.sampled_from((1, -1)))
    period = [sign * g for g in draw(st.permutations(range(1, n)))]
    letters = period * k
    defect = draw(st.sampled_from((None, None, None, "repeat", "sign", "swap")))
    if defect == "swap":
        # The last two neighbours that do not commute, if c has such a pair.
        at = max(
            (j for j in range(1, n - 1) if abs(abs(letters[j]) - abs(letters[j - 1])) == 1), default=1
        )
        at += (n - 1) * draw(st.integers(0, k - 1))
        letters[at - 1], letters[at] = letters[at], letters[at - 1]
    elif defect is not None:
        at = draw(st.integers(0, n - 2))
        period[at] = period[at - 1] if defect == "repeat" else -period[at]
        letters = period * k
    k = None if defect else k
    alphabet = [s * i for i in range(1, n) for s in (1, -1)]
    g, h = draw(st.sampled_from(alphabet)), draw(st.sampled_from(alphabet))
    letters = [g, *letters, -g]
    at = draw(st.integers(0, len(letters)))
    letters[at:at] = [h, -h]
    stabilize = draw(st.sampled_from((None, 1, -1)))
    if stabilize is not None:
        if draw(st.booleans()):
            letters = [x + (1 if x > 0 else -1) for x in letters]
        else:
            stabilize *= n
        letters.insert(draw(st.integers(0, len(letters))), stabilize)
        n += 1
    return BraidWord(n, tuple(letters)), k


class TestSimplify:
    """The braid and Markov moves closure_bracket applies before either engine."""

    @given(braid_words(min_strands=1, max_strands=8, max_length=30))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_trace_of_the_word_as_given(self, word):
        simplified, curl = braidket.braid._simplify(word)
        bracket = writhe_factor(-curl) * bracket_via_trace(simplified)
        assert bracket == bracket_via_trace(word)
        # The brute-force state sum takes about 1 s at 16 crossings, so it
        # checks the short words and the contracted one the rest.
        closure = closure_to_diagram(word)
        if len(word.letters) <= 12:
            assert bracket == bracket_state_sum(closure)
        if len(word.letters) <= 28:
            assert bracket == bracket_by_contraction(closure)

    @given(
        st.one_of(
            braid_words(min_strands=1, max_strands=9, max_length=40),
            torus_type_words().map(lambda case: case[0]),
        )
    )
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_a_simplified_word_is_a_fixed_point(self, word):
        # _simplify stops after the first pass that removes no strand, so a
        # word it returns must admit no further move.
        simplified = braidket.braid._simplify(word)[0]
        assert braidket.braid._simplify(simplified) == (simplified, 0)

    @pytest.mark.parametrize(
        "word, simplified, curl",
        [
            # sigma_1 sigma_3 sigma_1^-1 is sigma_3; the rest stays.
            ((4, (2, 1, 3, -1, 2, 3, 1, 3, 1, 2)), (4, (2, 3, 2, 3, 1, 3, 1, 2)), 0),
            # sigma_2 lies between sigma_1 and sigma_1^-1 either way round.
            ((4, (1, 2, -1, 2, 3, 3, 1)), (4, (1, 2, -1, 2, 3, 3, 1)), 0),
            # -1 meets the 1 near the end across the word's end (past a 3);
            # the ten conjugations turn the eight letters left by one more.
            ((4, (-1, 2, 1, 2, 1, 3, 2, 3, 1, 3)), (4, (1, 2, 1, 3, 2, 3, 3, 2)), 0),
            # A top generator used once, of either sign, leaves with its strand.
            ((4, (1, -2, 1, -2, 3)), (3, (1, -2, 1, -2)), 1),
            ((4, (1, -2, 1, -2, -3)), (3, (1, -2, 1, -2)), -1),
            # So does a bottom one, and the other indices move down.
            ((4, (3, -2, 3, -2, 1)), (3, (2, -1, 2, -1)), 1),
            ((4, (3, -2, 3, -2, -1)), (3, (2, -1, 2, -1)), -1),
            # Generators used twice stay.
            ((4, (1, 2, 1, 2, 3, 2, -3)), (4, (1, 2, 1, 2, 3, 2, -3)), 0),
            ((4, (1, 2, -1, 3, 2, 3)), (4, (1, 2, -1, 3, 2, 3)), 0),
            # sigma_4 and sigma_1 are unused: strands 5 and 1 are free loops;
            # the bottom one moves to the top and the rest move down.
            ((5, (2, -3, 2, -3)), (5, (1, -2, 1, -2)), 0),
            # Every generator once: one strand left, four positive curls.
            ((5, (1, 2, 3, 4)), (1, ()), 4),
            # c^k with a period c that uses every generator once, of one
            # sign, in any order, and 2 <= k < n: T(n, k) = T(k, n), so the
            # word becomes (sigma_1 ... sigma_(k-1))^n on k strands, and the
            # curl gains +-(n - k).
            ((5, (1, 2, 3, 4) * 3), (3, (1, 2) * 5), 2),
            ((5, (-4, -3, -2, -1) * 3), (3, (-1, -2) * 5), -2),
            ((5, (3, 1, 4, 2) * 2), (2, (1,) * 5), 3),
            # After destabilization, of (1 2)^2 on the three strands left;
            # the untouched strands stay at the top.
            ((4, (1, 2, 1, 2, 3)), (2, (1, 1, 1)), 2),
            ((6, (2, 3, 2, 3)), (5, (1, 1, 1)), 1),
            # No move: k = n, a period that misses sigma_2 and repeats
            # sigma_1, and a period of mixed signs.
            ((4, (1, 2, 3) * 4), (4, (1, 2, 3) * 4), 0),
            ((4, (1, 3, 1) * 2), (4, (1, 3, 1) * 2), 0),
            ((4, (1, -2, 3) * 2), (4, (1, -2, 3) * 2), 0),
        ],
    )
    def test_hand_checked_rewrites(self, word, simplified, curl):
        word = BraidWord(*word)
        assert braidket.braid._simplify(word) == (BraidWord(*simplified), curl)
        assert closure_bracket(word)[0] == bracket_via_trace(word)

    @pytest.fixture
    def engines(self, monkeypatch):
        """The calls of ``_fold`` and ``_contract``, each as its name and
        arguments, in order."""
        calls = []
        for name in ("_fold", "_contract"):
            original = getattr(braidket.braid, name)

            def spy(*args, original=original, name=name):
                calls.append((name, *args))
                return original(*args)

            monkeypatch.setattr(braidket.braid, name, spy)
        return calls

    def test_words_past_the_static_bound_reach_the_fold_as_given(self, engines):
        # 2^20 live diagrams of 20 strands could trip MAX_TL_COST; these do not.
        wide = BraidWord(20, (1, -1) * 10)
        assert closure_bracket(wide) == (DELTA**19, "trace")
        guarded = BraidWord(40, tuple(range(1, 40, 2)))
        with pytest.raises(SizeLimitError, match="cost guard"):
            closure_bracket(guarded)
        # Within the bound the same letters cancel, and the closure of the
        # empty word that is left, 6 free loops, is contracted.
        narrow = BraidWord(6, (1, -1) * 10)
        assert closure_bracket(narrow) == (DELTA**5, "contracted")
        assert engines == [("_fold", wide), ("_fold", guarded), ("_contract", [], 6)]

    def test_three_strand_words_reach_the_fold_as_given(self, engines):
        word = BraidWord(3, (1, -1, 2))
        assert closure_bracket(word) == (LaurentPoly.monomial(3, -1) * DELTA, "trace")
        assert engines == [("_fold", word)]


def torus_word(strands: int, times: int) -> BraidWord:
    """(sigma_1 ... sigma_(n-1))^k, whose closure is the torus link T(n, k)."""
    return BraidWord(strands, tuple(range(1, strands)) * times)


@st.composite
def torus_words(draw):
    n = draw(st.integers(2, 9))
    return torus_word(n, draw(st.integers(0, 30 // (n - 1))))


class TestClosureBracket:
    """closure_bracket contracts the closure of the simplified word when its
    greedy sweep is no wider than the word's strands, and traces it else."""

    @given(st.one_of(braid_words(min_strands=1, max_strands=9, max_length=30), torus_words()))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equals_both_traces(self, word):
        bracket, engine = closure_bracket(word)
        assert engine in ("trace", "contracted")
        assert bracket == bracket_via_trace(word)

    @given(
        st.one_of(
            braid_words(min_strands=1, max_strands=9, max_length=30),
            torus_words(),
            torus_type_words().map(lambda case: case[0]),
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_contracts_exactly_when_the_whole_sweep_fits(self, word):
        # The rule from the full greedy sweep, which closure_bracket stops as
        # soon as it is wider than the word's strands.
        n = word.strands
        fits = False
        if n > 3 and braidket.braid._within_guards(n, len(word.letters)):
            simplified = braidket.braid._simplify(word)[0]
            slots, free_loops = braidket.braid._closure(simplified)
            steps = _contraction_steps(slots)
            widest = max((len(frontier) for _, frontier in steps), default=0)
            fits = _oversize(len(slots), free_loops) is None and widest <= simplified.strands
        assert closure_bracket(word)[1] == ("contracted" if fits else "trace")

    @pytest.fixture
    def engines(self, monkeypatch):
        """The words ``_fold`` and the closures ``_closure`` are called with,
        and the calls of ``_contract``, in order."""
        calls = {"_fold": [], "_closure": [], "_contract": []}
        for name, record in calls.items():
            original = getattr(braidket.braid, name)

            def spy(b, *args, original=original, record=record, **kwargs):
                record.append(b)
                return original(b, *args, **kwargs)

            monkeypatch.setattr(braidket.braid, name, spy)
        return calls

    def test_narrow_torus_closure_is_contracted(self, engines):
        # (sigma_1 ... sigma_7 sigma_8^-1)^3, the torus word of T(9, 3) with
        # its top crossings changed, has a period of mixed signs, so it keeps
        # its 9 strands. The greedy sweep of its 24 crossings keeps at most
        # 6 ends open, where the TL_9 fold carries 3,281 diagrams.
        word = BraidWord(9, (1, 2, 3, 4, 5, 6, 7, -8) * 3)
        bracket, engine = closure_bracket(word)
        assert (bracket, engine) == (bracket_via_trace(word), "contracted")
        assert engines["_closure"] == [word]
        assert len(engines["_contract"]) == 1 and engines["_fold"] == [word]

    @pytest.mark.parametrize("word", [torus_word(9, 3), BraidWord(9, tuple(range(8, 0, -1)) * 3)])
    def test_torus_words_run_on_their_fewer_strands(self, engines, word):
        # T(9, 3) = T(3, 9), the closure of (sigma_1 sigma_2)^9 with a
        # writhe 6 lower; the half-twist flip (sigma_8 ... sigma_1)^3
        # closes to the same link. The greedy sweep keeps 6 > 3 ends open,
        # so the 3-strand word is traced.
        fewer = BraidWord(3, (1, 2) * 9)
        assert braidket.braid._simplify(word) == (fewer, 6)
        assert closure_bracket(word) == (bracket_via_trace(word), "trace")
        assert engines["_closure"] == [fewer] and engines["_contract"] == []
        assert engines["_fold"] == [fewer, word]

    def test_closure_wider_than_its_strands_is_traced(self, engines):
        # The greedy sweep of (sigma_1 ... sigma_4 sigma_5^-1)^4 keeps 8 ends
        # open; its period's mixed signs keep it on 6 strands.
        word = BraidWord(6, (1, 2, 3, 4, -5) * 4)
        steps = braidket.braid._contraction_steps(braidket.braid._closure(word)[0])
        assert max(len(frontier) for _, frontier in steps) == 8
        assert closure_bracket(word) == (bracket_via_trace(word), "trace")
        assert engines["_closure"] == [word, word]
        assert engines["_contract"] == [] and engines["_fold"] == [word, word]

    @pytest.mark.parametrize("word", [torus_word(3, 10), BraidWord(3, (1, -2, 1, 2)), BraidWord(2, (1,) * 5)])
    def test_three_strand_words_build_no_closure(self, engines, word):
        assert closure_bracket(word) == (bracket_via_trace(word), "trace")
        assert engines == {"_fold": [word, word], "_closure": [], "_contract": []}

    @pytest.mark.parametrize(
        "word, simplified",
        [
            # 32 of its 34 strands are free loops, past the 28-loop guard.
            (BraidWord(35, (1, 2, 1)), BraidWord(34, (1, 1))),
            # 30 letters, past the 28-crossing guard: a period of mixed signs
            # keeps them on 7 strands.
            (BraidWord(7, (1, 2, 3, 4, 5, -6) * 5), BraidWord(7, (1, 2, 3, 4, 5, -6) * 5)),
        ],
    )
    def test_words_past_a_contraction_guard_are_traced(self, engines, word, simplified):
        assert closure_bracket(word) == (bracket_via_trace(word), "trace")
        assert engines["_closure"] == [simplified] and engines["_contract"] == []
        assert engines["_fold"] == [simplified, word]


def torus_variants(p: int, q: int) -> list[BraidWord]:
    """The word of T(p, q) as given, conjugated by sigma_1, with
    sigma_1 sigma_1^-1 inserted, and stabilized by sigma_p and by
    sigma_p^-1: each closes to T(p, q) up to curls that the writhe undoes."""
    w = torus_word(p, q).letters
    middle = len(w) // 2
    return [
        BraidWord(p, w),
        BraidWord(p, (1,) + w + (-1,)),
        BraidWord(p, w[:middle] + (1, -1) + w[middle:]),
        BraidWord(p + 1, w + (p,)),
        BraidWord(p + 1, w + (-p,)),
    ]


class TestTorusKnots:
    """closure_bracket against the closed form of V(T(p, q)) (conftest)."""

    @given(torus_type_words())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_torus_type_words_equal_the_trace(self, case):
        word, k = case
        if k is not None:
            assert braidket.braid._simplify(word)[0].strands == k
        assert closure_bracket(word)[0] == bracket_via_trace(word)

    @pytest.mark.parametrize("p, q", [(p, q) for p in range(3, 8) for q in range(2, p)])
    def test_both_spellings_of_a_torus_link(self, p, q):
        # T(p, q) = T(q, p): the p-strand and q-strand words and their
        # half-twist flips give one f and V, the closed form for a knot; so
        # do their mirrors, among themselves.
        words = [torus_word(p, q), torus_word(q, p)]
        words += [BraidWord(w.strands, tuple(w.strands - g for g in w.letters)) for w in words]
        for mirror in (1, -1):
            invariants = set()
            for word in (BraidWord(w.strands, tuple(mirror * g for g in w.letters)) for w in words):
                bracket, _ = closure_bracket(word)
                assert bracket == bracket_via_trace(word)
                invariants.add(normalize_bracket(bracket, exponent_sum(word)))
            assert len(invariants) == 1
            if gcd(p, q) == 1 and mirror == 1:
                assert invariants.pop()[1] == torus_knot_jones(p, q)

    @pytest.mark.parametrize(
        "p, q",
        [(p, q) for p in range(2, 7) for q in range(1, 10) if gcd(p, q) == 1]
        # T(3, 500)'s stabilizations (1,001 letters on 4 strands) are within
        # _within_guards, so destabilized (test_long_word_past_the_gate has one
        # past it).
        + [(3, 500)],
    )
    def test_words_closing_to_torus_knots(self, p, q):
        expected = torus_knot_jones(p, q)
        for word in torus_variants(p, q):
            bracket, _ = closure_bracket(word)
            assert normalize_bracket(bracket, exponent_sum(word))[1] == expected

    def test_long_word_past_the_gate(self):
        # T(3, 1000), 2,000 letters, stabilized onto 4 strands: past
        # _within_guards, so traced as given, its digits widened on the way.
        word = BraidWord(4, torus_word(3, 1000).letters + (3,))
        assert not braidket.braid._within_guards(4, len(word.letters))
        bracket, _ = closure_bracket(word)
        assert normalize_bracket(bracket, exponent_sum(word))[1] == torus_knot_jones(3, 1000)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_stabilized_words_are_contracted_with_their_curl(self, sign):
        # (sigma_1 ... sigma_8)^2 closes to the knot T(9, 2) = T(2, 9): its
        # stabilization runs as sigma_1^9 on 2 strands, with a curl of 7
        # from the torus move and one of +-1 from the destabilization.
        knot = BraidWord(10, torus_word(9, 2).letters + (9 * sign,))
        assert braidket.braid._simplify(knot) == (BraidWord(2, (1,) * 9), 7 + sign)
        bracket, _ = closure_bracket(knot)
        assert normalize_bracket(bracket, exponent_sum(knot))[1] == torus_knot_jones(9, 2)
        # (sigma_1 ... sigma_7 sigma_8^-1)^3, a period of mixed signs, closes
        # to a link that the knot formula does not cover and keeps its 9
        # strands: sigma_9^(+-1) must multiply the bracket of the trace by
        # -A^(+-3).
        base = BraidWord(9, (1, 2, 3, 4, 5, 6, 7, -8) * 3)
        link = BraidWord(10, base.letters + (9 * sign,))
        expected = LaurentPoly.monomial(3 * sign, -1) * bracket_via_trace(base)
        assert closure_bracket(link) == (expected, "contracted")


class TestClosureToDiagram:
    def test_single_crossing(self):
        diagram = closure_to_diagram(BraidWord(2, (1,)))
        assert len(diagram.crossings) == 1
        assert diagram.free_loops == 0
        assert diagram.crossings[0].sign == 1

    def test_empty_word_makes_free_loops(self):
        diagram = closure_to_diagram(BraidWord(2, ()))
        assert len(diagram.crossings) == 0
        assert diagram.free_loops == 2

    def test_untouched_strand_is_free(self):
        diagram = closure_to_diagram(BraidWord(3, (1,)))
        assert diagram.free_loops == 1

    def test_signs_follow_letters(self):
        diagram = closure_to_diagram(BraidWord(3, (1, -2, 1)))
        assert [c.sign for c in diagram.crossings] == [1, -1, 1]
