import cmath
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from braidket import (
    BraidWord,
    bracket_from_trace,
    bracket_via_trace,
    closure_to_diagram,
    bracket_state_sum,
    rho_unitary,
    unitary3,
    unitary_generators,
)
from braidket.errors import InvalidAngleError, InvariantError

GOLDEN = (1 + math.sqrt(5)) / 2


def per_letter_product(letters, setup):
    """One 2x2 product per letter, left to right: the oracle for rho_unitary."""
    expected = np.eye(2, dtype=complex)
    for g in letters:
        u = setup.u1 if abs(g) == 1 else setup.u2
        if g > 0:
            factor = setup.a * np.eye(2) + u / setup.a
        else:
            factor = np.eye(2) / setup.a + setup.a * u
        expected = expected @ factor
    return expected


def blocked_pairwise_product(letters, factors, project):
    """rho_unitary's product as it was before the product tables: each block
    of _BLOCK letters' factors halved pairwise from single letters, and the
    block products folded left to right, ``project(X, letters so far)``
    applied to the running product from the second block on.
    """
    rows = [{1: 0, -1: 1, 2: 2, -2: 3}[g] for g in letters]
    product = np.eye(2, dtype=factors.dtype)
    for start in range(0, len(rows), unitary3._BLOCK):
        block = rows[start : start + unitary3._BLOCK]
        stack = factors[block]
        while len(stack) > 1:
            pairs = stack[0 : len(stack) - 1 : 2] @ stack[1::2]
            stack = np.concatenate((pairs, stack[-1:])) if len(stack) % 2 else pairs
        product = stack[0] if start == 0 else project(product @ stack[0], start + len(block))
    return product


def old_rho_unitary(letters, setup):
    """The oracle for rho_unitary's bits: its blocked product without tables."""
    return blocked_pairwise_product(letters, setup.factors, unitary3._polar_step)


def extended_precision_product(letters, setup):
    """rho_unitary's product of the same float64 factors in np.clongdouble
    (64-bit significands): each block multiplied pairwise, the running
    product mapped onto its unitary polar factor between blocks.
    """

    def polar_factor(product, _):
        for _ in range(4):  # Newton's polar iteration; each step squares the error
            (p, q), (r, s) = product
            inverse_h = np.array([[s, -r], [-q, p]]).conj() / np.conj(p * s - q * r)
            product = (product + inverse_h) / 2
        return product

    return blocked_pairwise_product(letters, setup.factors.astype(np.clongdouble), polar_factor)


VALID_THETAS = [
    0.0,
    math.pi / 10,
    -math.pi / 10,
    math.pi / 8,
    -math.pi / 8,
    math.pi / 12,
    -math.pi / 12,
    math.pi / 6,
    -math.pi / 6,
    math.pi,
]


class TestSetup:
    def test_golden_angle(self):
        setup = unitary_generators(math.pi / 10)
        assert abs(setup.delta + GOLDEN) < 1e-12
        assert abs(setup.a - cmath.exp(1j * math.pi / 10)) < 1e-15
        assert np.allclose(setup.u1, [[setup.delta, 0], [0, 0]])
        inv = 1 / setup.delta
        b = math.sqrt(1 - inv * inv)
        assert np.allclose(setup.u2, [[inv, b], [b, setup.delta - inv]])

    def test_theta_zero(self):
        setup = unitary_generators(0.0)
        assert setup.delta == -2.0
        assert abs(setup.u2[0, 1] ** 2 - 0.75) < 1e-12

    def test_invalid_angle(self):
        with pytest.raises(InvalidAngleError, match="delta"):
            unitary_generators(math.pi / 5)
        with pytest.raises(InvalidAngleError):
            unitary_generators(1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle(self, theta):
        with pytest.raises(InvalidAngleError, match="not finite"):
            unitary_generators(theta)

    def test_valid_angles_lie_within_pi_6_of_a_multiple_of_pi_2(self):
        # delta^2 >= 1 exactly when |theta - k*pi/2| <= pi/6 for some integer
        # k, as the error message says; the grid skips the boundaries.
        accepted = 0
        for theta in np.linspace(-10.0, 10.0, 1201):
            distance = abs(theta - round(theta / (math.pi / 2)) * (math.pi / 2))
            if abs(distance - math.pi / 6) < 1e-6:
                continue
            try:
                unitary_generators(float(theta))
            except InvalidAngleError as exc:
                assert distance > math.pi / 6, theta
                assert "within pi/6 of a multiple of pi/2" in str(exc)
            else:
                assert distance < math.pi / 6, theta
                accepted += 1
        assert 700 < accepted < 900  # two thirds of the grid

    def test_boundary_angle_accepted(self):
        setup = unitary_generators(math.pi / 6)
        assert abs(abs(setup.delta) - 1.0) < 1e-12
        assert abs(setup.u2[0, 1]) < 1e-6

    @pytest.mark.parametrize("theta", VALID_THETAS)
    def test_generator_relations(self, theta):
        setup = unitary_generators(theta)
        d = setup.delta
        for u in (setup.u1, setup.u2):
            assert np.max(np.abs(u @ u - d * u)) < 1e-12
        assert np.max(np.abs(setup.u1 @ setup.u2 @ setup.u1 - setup.u1)) < 1e-12
        assert np.max(np.abs(setup.u2 @ setup.u1 @ setup.u2 - setup.u2)) < 1e-12

    @pytest.mark.parametrize("theta", [*VALID_THETAS, -0.0, 0])
    def test_cached_setup_is_read_only_and_unchanged(self, theta):
        setup, fresh = unitary_generators(theta), unitary_generators.__wrapped__(theta)
        assert unitary_generators(theta) is setup
        assert (setup.a, setup.delta) == (fresh.a, fresh.delta)
        assert setup.tables[0] is setup.factors
        arrays = [(setup.u1, fresh.u1), (setup.u2, fresh.u2), *zip(setup.tables, fresh.tables)]
        for array, fresh_array in arrays:
            assert not array.flags.writeable
            assert array.tobytes() == fresh_array.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
        assert [len(table) for table in setup.tables] == [4, 16, 64, 256]

    @pytest.mark.parametrize("theta", VALID_THETAS)
    def test_trace_identities(self, theta):
        setup = unitary_generators(theta)
        assert abs(np.trace(setup.u1) - setup.delta) < 1e-12
        assert abs(np.trace(setup.u2) - setup.delta) < 1e-12
        assert abs(np.trace(setup.u1 @ setup.u2) - 1.0) < 1e-12
        assert abs(np.trace(setup.u2 @ setup.u1) - 1.0) < 1e-12


class TestRepresentation:
    def test_generator_is_unitary(self):
        setup = unitary_generators(math.pi / 10)
        rho = rho_unitary(BraidWord(3, (1,)), setup)
        assert np.max(np.abs(rho @ rho.conj().T - np.eye(2))) < 1e-12

    def test_inverse_pair(self):
        setup = unitary_generators(math.pi / 10)
        rho = rho_unitary(BraidWord(3, (1, -1)), setup)
        assert np.max(np.abs(rho - np.eye(2))) < 1e-12

    def test_wrong_strand_count(self):
        setup = unitary_generators(0.1)
        with pytest.raises(ValueError, match="3 strands"):
            rho_unitary(BraidWord(2, (1,)), setup)

    def test_braid_relation(self):
        for theta in VALID_THETAS:
            setup = unitary_generators(theta)
            lhs = rho_unitary(BraidWord(3, (1, 2, 1)), setup)
            rhs = rho_unitary(BraidWord(3, (2, 1, 2)), setup)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_long_products_stay_unitary(self, rng):
        setup = unitary_generators(math.pi / 8)
        for _ in range(10):
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(20))
            rho = rho_unitary(BraidWord(3, letters), setup)
            assert np.max(np.abs(rho @ rho.conj().T - np.eye(2))) < 1e-12

    def test_agrees_with_per_letter_loop(self, rng):
        for theta in (math.pi / 10, -0.37, math.pi + 0.2):
            setup = unitary_generators(theta)
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(500))
            rho = rho_unitary(BraidWord(3, letters), setup)
            assert np.max(np.abs(rho - per_letter_product(letters, setup))) <= 1e-13


class TestBlockedProduct:
    """rho_unitary multiplies each block of letters pairwise and re-projects
    the running product onto U(2) between blocks."""

    THETAS = (0.2, -0.37, 3.0)

    @pytest.mark.parametrize("theta", THETAS)
    def test_moduli_match_extended_precision(self, theta):
        # Log-uniform lengths over 10^3..3.2*10^4, as in the qsim benchmark,
        # plus both sides of the first block boundary.
        setup = unitary_generators(theta)
        rng = random.Random(f"accuracy:{theta}")
        lengths = [int(1000 * 32 ** ((k + rng.random()) / 6)) for k in range(6)]
        for length in [*lengths, unitary3._BLOCK, unitary3._BLOCK + 1]:
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(length))
            moduli = np.abs(rho_unitary(BraidWord(3, letters), setup)) ** 2
            reference = np.abs(extended_precision_product(letters, setup)) ** 2
            assert np.max(np.abs(moduli - reference)) <= 1e-13, length

    @pytest.mark.parametrize("theta", THETAS)
    def test_projected_product_matches_per_letter_loop(self, theta, rng, monkeypatch):
        monkeypatch.setattr(unitary3, "_BLOCK", 3)  # 167 blocks, 166 projections
        setup = unitary_generators(theta)
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(500))
        rho = rho_unitary(BraidWord(3, letters), setup)
        assert np.max(np.abs(rho - per_letter_product(letters, setup))) <= 1e-13
        assert np.max(np.abs(rho.conj().T @ rho - np.eye(2))) <= 1e-15

    def test_projection_never_hides_a_wrong_factor(self, monkeypatch):
        monkeypatch.setattr(unitary3, "_BLOCK", 3)
        setup = unitary_generators(0.2)
        factors = setup.factors.copy()
        factors[2] *= 1 + 1e-9  # rho(sigma_2), off unitary by 2e-9
        wrong = dataclasses.replace(setup, factors=factors)
        word = BraidWord(3, (1, -1, 1, 2, -1, 1, 2))
        with pytest.raises(InvariantError, match="first 6 letters is not unitary"):
            rho_unitary(word, wrong)
        # Only the last block, one letter long, holds sigma_2: the message
        # counts the word's 7 letters, not three whole blocks.
        with pytest.raises(InvariantError, match="first 7 letters is not unitary"):
            rho_unitary(BraidWord(3, (1,) * 6 + (2,)), wrong)

    def test_replaced_factors_rebuild_the_tables(self):
        setup = unitary_generators(0.2)
        factors = setup.factors.copy()
        factors[2] *= 1 + 1e-9
        wrong = dataclasses.replace(setup, factors=factors)
        assert wrong.tables[0] is factors
        for table, old_table in zip(wrong.tables[1:], setup.tables[1:]):
            assert not table.flags.writeable
            assert table.tobytes() != old_table.tobytes()
        for letters in [(2,), (1, 2), (2, -1, 1), (1, 2, -2, 2), (2, -1, 2, 1, -2, 2, 1)]:
            expected = old_rho_unitary(letters, wrong)
            assert rho_unitary(BraidWord(3, letters), wrong).tobytes() == expected.tobytes()

    def test_unitarity_excess(self):
        # The one check behind _polar_step and qsim.evolve: None within the
        # bound, the deviation past it, and NaN counts as past it.
        assert unitary3._unitarity_excess(np.eye(3)) is None
        assert unitary3._unitarity_excess(np.eye(2) * (1 + 1e-11)) is None
        assert unitary3._unitarity_excess(np.diag([1.0, 2.0])) == 3.0
        assert math.isnan(unitary3._unitarity_excess(np.diag([1.0, math.nan])))


class TestBracketFromTrace:
    def test_empty_word_gives_unlink_value(self):
        setup = unitary_generators(math.pi / 10)
        value = bracket_from_trace(BraidWord(3, ()), setup)
        assert abs(value - setup.delta**2) < 1e-12

    def test_single_generator_closure(self):
        # closure of sigma_1 in B_3: an unknot with one positive curl plus a
        # split circle, so the bracket is (-A^3) * delta
        setup = unitary_generators(math.pi / 10)
        value = bracket_from_trace(BraidWord(3, (1,)), setup)
        expected = -(setup.a**3) * setup.delta
        assert abs(value - expected) < 1e-12

    def test_trefoil_closure_matches_state_sum(self):
        setup = unitary_generators(math.pi / 10)
        word = BraidWord(3, (1, 2, 1, 2))
        exact = bracket_state_sum(closure_to_diagram(word)).evaluate(setup.a)
        assert abs(bracket_from_trace(word, setup) - exact) < 1e-9

    @pytest.mark.parametrize("theta", [0.2, -math.pi / 8, math.pi])
    def test_equals_the_numpy_trace_formula(self, theta, rng):
        setup = unitary_generators(theta)
        for length in (0, 1, 2, 7, 30, unitary3._BLOCK + 5):
            word = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(length)))
            rho = rho_unitary(word, setup)
            unlink = setup.a ** sum(1 if g > 0 else -1 for g in word.letters)
            expected = complex(np.trace(rho)) + unlink * (setup.delta**2 - 2)
            assert bracket_from_trace(word, setup) == expected

    def test_agrees_with_exact_bracket_on_sample(self):
        setup = unitary_generators(-math.pi / 8)
        for length in range(0, 9):
            for letters in itertools.islice(
                itertools.product((1, -1, 2, -2), repeat=length), 24
            ):
                word = BraidWord(3, letters)
                exact = bracket_via_trace(word).evaluate(setup.a)
                assert abs(bracket_from_trace(word, setup) - exact) < 1e-9


CRITERION_07_THETAS = [math.pi / 10, -math.pi / 10, math.pi / 8, -math.pi / 8, math.pi / 6]


class TestProductTables:
    """rho_unitary starts each block from the products of 4 letters, then of
    the 1-3 left over, and a block of at most 8 letters is the product of at
    most two such lookups; its bits must be those of the blocked pairwise
    product from single letters."""

    # 1,020-1,030 straddle the first boundary of the real block size.
    LENGTHS = [*range(13), *range(1020, 1031), 4099]

    # Every angle with the real block size.  The small blocks, which cost a
    # projection every few letters, run at the three angles of
    # TestBlockedProduct, where 1,020-1,030 cross no boundary of theirs that
    # 0-12 do not.  Blocks of 8 letters are the longest that take two
    # lookups and one product, blocks of 9 the shortest that take the
    # halving; up to two blocks, every length of the last block is tried.
    @pytest.mark.parametrize(
        "theta, block",
        [
            *((theta, None) for theta in CRITERION_07_THETAS + list(TestBlockedProduct.THETAS)),
            *itertools.product(TestBlockedProduct.THETAS, (3, 5, 6, 8, 9)),
        ],
    )
    def test_bits_match_the_blocked_pairwise_product(self, theta, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(unitary3, "_BLOCK", block)
            # Groups of two blocks: the 4,099-letter words cross hundreds of
            # group boundaries, and the short ones end in a partial group.
            monkeypatch.setattr(unitary3, "_GROUP", 2)
        setup = unitary_generators(theta)
        rng = random.Random(f"tables:{theta}:{block}")
        for length in self.LENGTHS if block is None else [*range(max(13, 2 * block + 1)), 4099]:
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(length))
            rho = rho_unitary(BraidWord(3, letters), setup)
            assert rho.tobytes() == old_rho_unitary(letters, setup).tobytes(), length

    @staticmethod
    def short_words(every, seeded, seed):
        """Every word of at most ``every`` letters, then 256 seeded words of
        each length in ``seeded``."""
        rng = random.Random(seed)
        words = [w for n in range(every + 1) for w in itertools.product((1, -1, 2, -2), repeat=n)]
        for n in seeded:
            words += [tuple(rng.choice((1, -1, 2, -2)) for _ in range(n)) for _ in range(256)]
        return words

    @pytest.mark.parametrize("theta", CRITERION_07_THETAS)
    def test_words_of_at_most_8_letters_match_bit_for_bit(self, theta):
        setup = unitary_generators(theta)
        for letters in self.short_words(6, (7, 8), f"short:{theta}"):
            rho = rho_unitary(BraidWord(3, letters), setup)
            assert rho.tobytes() == old_rho_unitary(letters, setup).tobytes(), letters

    def test_short_words_are_one_fresh_writable_lookup(self):
        # Up to 4 letters one lookup, copied; 5 to 8 the product of two.
        setup = unitary_generators(-0.37)
        for letters in self.short_words(5, (6, 7, 8), "fresh")[1:]:
            rho = rho_unitary(BraidWord(3, letters), setup)
            assert rho.flags.writeable
            assert rho.tobytes() == old_rho_unitary(letters, setup).tobytes()
            rho[:] = 0  # must not reach the cached tables
        fresh = unitary_generators.__wrapped__(-0.37)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(setup.tables, fresh.tables))
