import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from braidket import (
    A,
    A_INV,
    DELTA,
    ONE,
    LaurentPoly,
    SymbolicMatrix,
    bracket_by_contraction,
    bracket_state_sum,
    bracket_via_trace,
    burau_generator,
    closure_to_diagram,
    elementary_tensors,
    normalize,
    rho_matrix,
    rho_tl,
    to_jones_variable,
    u_tensor,
    z_amplitude,
)
from braidket.errors import ExactDivisionError
from braidket.laurent import _pack, _t_power, _unpack
from conftest import I, M_I, GaussianInt, braid_words, laurent_polys

IA = LaurentPoly.monomial(1, I)


# The test oracle's Gaussian integers (conftest) must collapse to ints when
# real, or no value built from M_I would equal the package's int one.
class TestGaussianInt:
    def test_i_squared_is_minus_one(self):
        square = I * I
        assert type(square) is int and square == -1

    def test_real_result_is_an_int(self):
        total = GaussianInt(2, 5) + GaussianInt(1, -5)
        assert type(total) is int and total == 3


class TestCoefficientTypes:
    def test_constant_compares_like_its_coefficient(self):
        assert LaurentPoly.monomial(0, 3) == 3 and 3 == LaurentPoly.monomial(0, 3)
        assert hash(LaurentPoly.monomial(0, 3)) == hash(3)
        assert LaurentPoly.one() == 1 and hash(LaurentPoly.one()) == hash(1)
        assert LaurentPoly.zero() == 0 and hash(LaurentPoly.zero()) == hash(0)
        assert LaurentPoly.monomial(1, 3) != 3

    # The cup/cap matrix is i*M' with M' integer; every value, M' included,
    # must hold plain ints.

    @given(braid_words())
    @settings(max_examples=30, deadline=None)
    def test_real_values_hold_ints(self, word):
        diagram = closure_to_diagram(word)
        polys = [
            bracket_via_trace(word),
            bracket_by_contraction(diagram),
            bracket_state_sum(diagram),
            *normalize(diagram),
            z_amplitude(word),
            *rho_tl(word).combo.values(),
            *rho_matrix(word).entries.values(),
        ]
        assert all(type(c) is int for p in polys for _, c in p.terms())

    def test_real_tensors_hold_ints(self):
        _, eta, r = elementary_tensors()
        matrices = [eta, r]
        for n in range(2, 7):
            matrices += [make(n, i) for i in range(1, n) for make in (u_tensor, burau_generator)]
        polys = [p for m in matrices for p in m.entries.values()]
        assert all(type(c) is int for p in polys for _, c in p.terms())

    def test_cup_cap_matrix_is_m_over_i(self):
        m = elementary_tensors().M
        assert m == SymbolicMatrix(2, {(0, 1): A, (1, 0): -A_INV})
        assert m.scale(LaurentPoly.monomial(0, I)) == M_I
        assert all(type(c) is int for p in m.entries.values() for _, c in p.terms())


class TestRingArithmetic:
    def test_cancellation(self):
        assert (A + A_INV) + (A - A_INV) == 2 * A

    def test_delta_squared(self):
        assert DELTA * DELTA == LaurentPoly({4: 1, 0: 2, -4: 1})

    def test_ia_squared(self):
        assert IA * IA == LaurentPoly.monomial(2, -1)

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            DELTA ** (-1)

    @given(laurent_polys, laurent_polys, laurent_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(laurent_polys)
    @settings(max_examples=40, deadline=None)
    def test_canonical_idempotence(self, p):
        assert LaurentPoly(dict(p.terms())) == p
        assert all(bool(c) for _, c in p.terms())

    @given(laurent_polys, laurent_polys)
    @settings(max_examples=40, deadline=None)
    def test_exact_division_roundtrip(self, p, q):
        if q.is_zero:
            return
        assert (p * q).divexact(q) == p

    @given(laurent_polys, laurent_polys)
    @settings(max_examples=40, deadline=None)
    def test_a_product_of_packs_is_the_pack_of_the_product(self, p, q):
        # Even exponents from -40 up; a product's coefficients are sums of at
        # most 6 products of two coefficients, so below 6 * 81 < 2^9.
        p, q = (LaurentPoly({2 * e: c for e, c in f.terms()}) for f in (p, q))
        bits = 10
        assert _unpack(_pack(p, bits, -40), bits, -40) == p
        assert _unpack(_pack(p, bits, -40) * _pack(q, bits, -40), bits, -80) == p * q

    def test_divexact_rejects_an_inexact_coefficient(self):
        with pytest.raises(ExactDivisionError):
            (2 * A).divexact(3 * ONE)
        with pytest.raises(ExactDivisionError):
            (-3 * A).divexact(2 * ONE)
        # floor division rounds -3/2 to -2 with remainder 1; the sign must
        # not hide it, and an exact negative quotient must keep its sign.
        assert (-4 * A).divexact(2 * ONE) == -2 * A

    def test_divexact_rejects_a_remainder(self):
        with pytest.raises(ExactDivisionError, match="left a remainder"):
            (A + ONE).divexact(DELTA)

    def test_divexact_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            A.divexact(LaurentPoly.zero())


class TestEvaluate:
    def test_delta_at_unit_angle(self):
        a = cmath.exp(1j * math.pi / 10)
        assert abs(DELTA.evaluate(a) - (-2 * math.cos(math.pi / 5))) < 1e-12

    def test_constant(self):
        assert ONE.evaluate(3.7 + 0.1j) == 1

    def test_delta_squared_value(self):
        # independent oracle: square the numeric value of delta
        a = cmath.exp(1j * math.pi / 10)
        expected = DELTA.evaluate(a) ** 2
        assert abs((DELTA * DELTA).evaluate(a) - expected) < 1e-12
        assert abs(expected.real - 2.618033988749895) < 1e-9

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DELTA.evaluate(0)

    @given(laurent_polys, laurent_polys)
    @settings(max_examples=40, deadline=None)
    def test_evaluate_is_multiplicative_on_unit_circle(self, p, q):
        a = cmath.exp(0.731j)
        lhs = (p * q).evaluate(a)
        rhs = p.evaluate(a) * q.evaluate(a)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestJonesVariable:
    def test_one(self):
        assert to_jones_variable(ONE) == LaurentPoly({0: 1})

    def test_exponent_map(self):
        assert to_jones_variable(LaurentPoly.monomial(-4)) == LaurentPoly({4: 1})

    def test_trefoil_invariant(self):
        f = LaurentPoly({-4: 1, -12: 1, -16: -1})
        assert str(to_jones_variable(f)) == "t + t^3 - t^4"

    def test_fractional_powers(self):
        f = LaurentPoly({-2: -1, -10: -1})
        assert str(to_jones_variable(f)) == "-t^(1/2) - t^(5/2)"

    def test_json_ascending(self):
        f = LaurentPoly({-4: 1, -12: 1, -16: -1, 2: -3})
        assert to_jones_variable(f).to_json() == [[-2, -3, 0], [4, 1, 0], [12, 1, 0], [16, -1, 0]]
        assert str(to_jones_variable(f)) == "-3*t^(-1/2) + t + t^3 - t^4"

    def test_t_power_spells_quarters_as_fraction_does(self):
        for quarters in range(-4001, 4002):
            want = f"t^({Fraction(quarters, 4)})" if quarters % 4 else _t_power(quarters)
            assert _t_power(quarters) == want, quarters
        assert [_t_power(q) for q in (-4, 0, 4, 8)] == ["t^-1", "t^0", "t", "t^2"]

    def test_evaluate_takes_t(self):
        trefoil = to_jones_variable(LaurentPoly({-4: 1, -12: 1, -16: -1}))
        assert trefoil.evaluate(2) == pytest.approx(2 + 8 - 16)
        assert to_jones_variable(LaurentPoly({-2: -1})).evaluate(4) == pytest.approx(-2)
        with pytest.raises(ValueError):
            to_jones_variable(ONE).evaluate(0)


class TestRendering:
    def test_canonical_text(self):
        assert str(LaurentPoly({5: -1, -3: -1, -7: 1})) == "-A^5 - A^-3 + A^-7"

    def test_zero(self):
        assert str(LaurentPoly.zero()) == "0"

    def test_constants_and_coefficients(self):
        assert str(ONE) == "1"
        assert str(2 * A) == "2*A^1"
        assert str(DELTA) == "-A^2 - A^-2"
        assert str(LaurentPoly({0: -3})) == "-3"

    def test_json_descending(self):
        poly = LaurentPoly({5: -1, -3: -1, -7: 1})
        assert poly.to_json() == [[5, -1, 0], [-3, -1, 0], [-7, 1, 0]]

    def test_constants_hash_like_ints(self):
        assert LaurentPoly.one() == 1 and hash(LaurentPoly.one()) == hash(1)
        assert len({LaurentPoly.one(), 1}) == 1
        assert len({LaurentPoly.zero(), 0, LaurentPoly({0: -7}), -7}) == 2

    def test_invert_variable(self):
        poly = LaurentPoly({5: -1, -3: 2})
        assert poly.invert_variable() == LaurentPoly({-5: -1, 3: 2})
