import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidket import qsim
from braidket import (
    BraidWord,
    QState,
    ShotRecord,
    bracket_via_trace,
    estimate_matrix_moduli,
    evolve,
    find_phase_loss_witness,
    rho_unitary,
    sample_shots,
    short_word_table,
    unitary_generators,
)

SETUP = unitary_generators(math.pi / 10)
HALF = QState(np.array([2**-0.5, 2**-0.5]))
THREE = QState(np.array([0.6, 0.48j, 0.64]))
CHUNK = qsim._SHOT_CHUNK


def _uniforms(seed, first_shot, count):
    """Counter-based uniforms in [0, 1): the top 53 bits of splitmix64."""
    idx = np.arange(first_shot, first_shot + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * np.uint64(
            0x9E3779B97F4A7C15
        )
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def reference_counts(state, shots, seed, first_shot=0):
    """The float sampler: each uniform goes through searchsorted on the
    cumulative sum, the last index taking the rest."""
    cumulative = np.cumsum(state.probabilities())
    draws = _uniforms(seed, first_shot, shots)
    indices = np.minimum(np.searchsorted(cumulative, draws, side="right"), len(cumulative) - 1)
    return tuple(int(c) for c in np.bincount(indices, minlength=len(cumulative)))


class Probabilities:
    """Stands in for a QState whose probabilities are exactly the given
    floats, so the cumulative sum can sit on a chosen value."""

    def __init__(self, probabilities):
        self.p = np.array(probabilities, dtype=float)

    def probabilities(self):
        return self.p


@st.composite
def sampling_cases(draw):
    """(probabilities, shots, seed, first_shot), some with a cumulative value
    on a drawn uniform's grid point or one ulp either side of it."""
    dim = draw(st.integers(2, 4))
    shots = draw(st.integers(1, 2 * CHUNK + 5))
    first_shot = draw(st.integers(0, 2**64 - shots))
    seed = draw(st.integers(-(2**64), 2**65))
    weights = draw(st.lists(st.floats(0, 1), min_size=dim, max_size=dim))
    if sum(weights) == 0:
        weights[-1] = 1.0
    p = [w / sum(weights) for w in weights]
    if draw(st.booleans()):
        # c_k lands on the uniform of one of this batch's shots: zeros before
        # it keep the cumulative sum exact, the rest shares what is left.
        k = draw(st.integers(0, dim - 2))
        shot = draw(st.integers(0, shots - 1))
        tie = float(_uniforms(seed, first_shot + shot, 1)[0])
        tie = float(np.nextafter(tie, draw(st.sampled_from([-1.0, tie, 2.0]))))
        rest = weights[k + 1 :]
        total = sum(rest) or 1.0
        p = [0.0] * k + [tie] + [(1 - tie) * w / total for w in rest]
    return p, shots, seed, first_shot


class TestQState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            QState(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="norm"):
            QState(np.array([math.nan, 0.0]))

    def test_probabilities(self):
        assert np.allclose(HALF.probabilities(), [0.5, 0.5])


class TestEvolve:
    def test_identity_prepares_basis_state(self):
        state = evolve(0, np.eye(2))
        assert np.allclose(state.amplitudes, [1, 0])

    def test_diagonal_braid_image(self):
        rho = rho_unitary(BraidWord(3, (1,)), SETUP)
        state = evolve(0, rho)
        expected_top = SETUP.a + SETUP.delta / SETUP.a
        assert abs(state.amplitudes[0] - expected_top) < 1e-12
        assert abs(state.amplitudes[1]) == 0

    def test_norm_preserved_for_random_words(self, rng):
        for _ in range(10):
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(12))
            rho = rho_unitary(BraidWord(3, letters), SETUP)
            state = evolve(rng.randint(0, 1), rho)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            evolve(0, np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="not unitary"):
            evolve(0, np.array([[1.0, 0.0], [0.0, math.nan]]))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            evolve(5, np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="^operator must be a square matrix$"):
            evolve(0, np.ones((2, 3)))


class TestSampling:
    def test_deterministic_state_gives_all_counts(self):
        record = sample_shots(QState(np.array([1.0, 0.0])), 1000, 3)
        assert record.counts == (1000, 0)

    def test_seed_determinism(self):
        first = sample_shots(HALF, 5000, 42)
        second = sample_shots(HALF, 5000, 42)
        assert first == second
        assert sum(first.counts) == 5000

    def test_different_seeds_differ(self):
        assert sample_shots(HALF, 5000, 1) != sample_shots(HALF, 5000, 2)

    def test_batch_split_independence(self):
        whole = sample_shots(HALF, 10000, 9)
        merged = sample_shots(HALF, 3000, 9).merge(
            sample_shots(HALF, 7000, 9, first_shot=3000)
        )
        assert merged == whole

    @staticmethod
    def _record_draws(monkeypatch):
        """Record the size of every chunk of draws."""
        drawn = []
        draw_chunks = qsim._draw_chunks

        def recorded(seed, first_shot, shots):
            for chunk in draw_chunks(seed, first_shot, shots):
                drawn.append(len(chunk))
                yield chunk

        monkeypatch.setattr(qsim, "_draw_chunks", recorded)
        return drawn

    def test_chunked_draw_equals_one_draw(self, monkeypatch):
        state = QState(np.array([0.6, 0.48j, 0.64]))
        whole = sample_shots(state, 10000, 9, first_shot=123)
        drawn = self._record_draws(monkeypatch)
        monkeypatch.setattr(qsim, "_SHOT_CHUNK", 997)
        assert sample_shots(state, 10000, 9, first_shot=123) == whole
        assert drawn == [997] * 10 + [30]

    def test_draws_need_no_errstate(self, monkeypatch):
        # uint64 array arithmetic wraps silently, even when every floating
        # point error raises.
        half, whole = sample_shots(HALF, 10**6, 1), sample_shots(THREE, 10000, 9, first_shot=123)
        with np.errstate(all="raise"):
            assert sample_shots(HALF, 10**6, 1) == half
            assert sample_shots(THREE, 1000, 5, 2**64 - 1000).counts == (356, 221, 423)
            monkeypatch.setattr(qsim, "_SHOT_CHUNK", 997)
            assert sample_shots(THREE, 10000, 9, first_shot=123) == whole

    @pytest.mark.parametrize(
        "amplitudes",
        [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, -1j, 0.0], [1.0], [0.6, 0.0, 0.8j]],
    )
    def test_point_masses_draw_nothing(self, monkeypatch, amplitudes):
        # Every limit is None or 0, so the counts are fixed without a draw.
        # The last state draws, to check the spy.
        state = QState(np.array(amplitudes))
        expected = reference_counts(state, 5000, 4, first_shot=77)
        drawn = self._record_draws(monkeypatch)
        assert sample_shots(state, 5000, 4, first_shot=77).counts == expected
        assert drawn == ([] if max(state.probabilities()) == 1.0 else [5000])

    def test_a_million_shots_draw_in_cache_sized_chunks(self, monkeypatch):
        drawn = self._record_draws(monkeypatch)
        sample_shots(HALF, 10**6, 1)
        assert drawn == [2**15] * 30 + [16960]

    @pytest.mark.parametrize(
        "state, shots, seed, first_shot, counts",
        [
            (HALF, 10**6, 1, 0, (499154, 500846)),
            (THREE, 10000, 9, 123, (3618, 2286, 4096)),
            (
                evolve(1, rho_unitary(BraidWord(3, (1, -2, 2, 1, 2, -1)), SETUP)),
                100000,
                7,
                0,
                (61813, 38187),
            ),
            (THREE, 1000, 5, 2**64 - 1000, (356, 221, 423)),
            (
                QState(np.sqrt([0.1, 0.2, 0.3, 0.4])),
                2**20 + 5,
                11,
                3,
                (105112, 209763, 314420, 419286),
            ),
            (QState(np.array([0.0, 1.0])), 777, 2, 0, (0, 777)),
        ],
    )
    def test_golden_counts(self, state, shots, seed, first_shot, counts):
        assert sample_shots(state, shots, seed, first_shot).counts == counts

    @settings(max_examples=60, deadline=None)
    @given(sampling_cases())
    @example(([0.0, 1.0], 40, 3, 0))
    @example(([1.0, 0.0], 40, 3, 0))
    @example(([1.0, 0.0, 0.0], 40, 3, 2**64 - 40))
    @example(([0.0, 0.0, 1.0], 40, 3, 0))
    @example(([0.5, 0.5], CHUNK + 1, 4, CHUNK - 1))
    # shot 1554 of seed 1 draws x = T << 11 exactly, with T = c_0 * 2^53;
    # then c_0 one ulp below and above that grid point
    @example(([0.013388532535062003, 0.986611467464938], 1555, 1, 0))
    @example(([0.013388532535062002, 0.986611467464938], 1555, 1, 0))
    @example(([0.013388532535062005, 0.986611467464938], 1555, 1, 0))
    # c_2 rounds above 1, then below 1, with a fourth index after it
    @example(([0.197, 0.687, 0.116, 0.0], 3 * CHUNK + 7, 5, 9))
    @example(([0.7, 0.2, 0.1, 0.0], 2 * CHUNK, 6, 1))
    def test_integer_thresholds_equal_the_float_sampler(self, case):
        p, shots, seed, first_shot = case
        state = Probabilities(p)
        expected = reference_counts(state, shots, seed, first_shot)
        assert sample_shots(state, shots, seed, first_shot).counts == expected

    @pytest.mark.parametrize("first_shot, shots", [(-3, 10), (2**64 - 5, 6), (2**64, 1)])
    def test_rejects_shots_outside_the_counter_range(self, first_shot, shots):
        with pytest.raises(ValueError, match="range"):
            sample_shots(HALF, shots, 1, first_shot=first_shot)

    def test_rejects_no_shots(self):
        with pytest.raises(ValueError, match="^need at least one shot$"):
            sample_shots(HALF, 0, 1)

    def test_last_counter_value_accepted(self):
        record = sample_shots(HALF, 5, 1, first_shot=2**64 - 5)
        assert sum(record.counts) == 5

    def test_merge_rejects_mismatched_seeds(self):
        with pytest.raises(ValueError):
            sample_shots(HALF, 10, 1).merge(sample_shots(HALF, 10, 2))

    def test_binomial_convergence(self):
        shots = 100000
        record = sample_shots(HALF, shots, 2024)
        bound = 4 * math.sqrt(0.25 / shots)
        assert abs(record.counts[0] / shots - 0.5) <= bound

    def test_coverage_of_four_sigma_bound(self):
        shots = 10000
        bound = 4 * math.sqrt(0.25 / shots)
        hits = sum(
            abs(sample_shots(HALF, shots, seed).counts[0] / shots - 0.5) <= bound
            for seed in range(100)
        )
        assert hits >= 99

    def test_shot_record_invariant(self):
        with pytest.raises(ValueError):
            ShotRecord(5, (1, 1), 0)


class TestMatrixModuli:
    def test_diagonal_word_has_zero_off_diagonal(self):
        pairs = estimate_matrix_moduli(BraidWord(3, (1,)), SETUP, 20000, 5)
        assert pairs[0][1][1] == pytest.approx(0.0, abs=1e-12)
        assert pairs[1][0][1] == pytest.approx(0.0, abs=1e-12)
        assert pairs[0][1][0] == 0.0
        assert pairs[1][0][0] == 0.0

    def test_sigma2_has_nontrivial_off_diagonal(self):
        pairs = estimate_matrix_moduli(BraidWord(3, (2,)), SETUP, 50000, 5)
        exact_off = pairs[0][1][1]
        assert exact_off > 0.1
        for i in range(2):
            for j in range(2):
                estimate, exact = pairs[i][j]
                se = math.sqrt(max(exact * (1 - exact), 0.0) / 50000)
                assert abs(estimate - exact) <= 4 * se + 1e-12

    def test_columns_sum_to_one(self):
        pairs = estimate_matrix_moduli(BraidWord(3, (1, -2, 2, 1)), SETUP, 10000, 8)
        for j in range(2):
            assert sum(pairs[i][j][0] for i in range(2)) == pytest.approx(1.0)
            assert sum(pairs[i][j][1] for i in range(2)) == pytest.approx(1.0)


class TestShortWordTable:
    def test_matches_per_word_products(self):
        words, moduli, values = short_word_table(SETUP, 3)
        assert len(words) == 4 + 16 + 64
        assert [w.letters for w in words[:5]] == [(1,), (-1,), (2,), (-2,), (1, 1)]
        for word, row, value in zip(words, moduli, values):
            assert np.array_equal(row, (np.abs(rho_unitary(word, SETUP)) ** 2).reshape(-1))
            assert value == bracket_via_trace(word).evaluate(SETUP.a)


class TestPhaseLoss:
    def test_witness_found(self):
        witness = find_phase_loss_witness(SETUP, max_length=4)
        assert witness is not None
        assert witness.moduli_gap <= 1e-12
        assert witness.bracket_gap > 1e-6

    def test_witness_words_really_confuse_the_sampler(self):
        witness = find_phase_loss_witness(SETUP, max_length=2)
        rho_a = rho_unitary(witness.word_a, SETUP)
        rho_b = rho_unitary(witness.word_b, SETUP)
        assert np.max(np.abs(np.abs(rho_a) ** 2 - np.abs(rho_b) ** 2)) <= 1e-12
        assert abs(witness.bracket_a - witness.bracket_b) > 1e-6
