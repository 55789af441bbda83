import pytest
from hypothesis import given, settings

from braidket import (
    A,
    A_INV,
    BraidWord,
    LaurentPoly,
    TLElement,
    bracket_via_trace,
    closure_to_diagram,
    exponent_sum,
    generator_diagram,
    parse_braid,
    rho_tl,
)
from braidket.errors import ParseError
from conftest import braid_words, random_words

TREFOIL_BRACKET = LaurentPoly({5: -1, -3: -1, -7: 1})


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
        assert bracket_via_trace(word).is_real

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
