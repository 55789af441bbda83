import math

import numpy as np
import pytest

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
        """Record the count of every batch of uniforms drawn."""
        drawn = []
        uniforms = qsim._uniforms

        def recorded(seed, first_shot, count):
            drawn.append(count)
            return uniforms(seed, first_shot, count)

        monkeypatch.setattr(qsim, "_uniforms", recorded)
        return drawn

    def test_chunked_draw_equals_one_draw(self, monkeypatch):
        state = QState(np.array([0.6, 0.48j, 0.64]))
        whole = sample_shots(state, 10000, 9, first_shot=123)
        drawn = self._record_draws(monkeypatch)
        monkeypatch.setattr(qsim, "_SHOT_CHUNK", 997)
        assert sample_shots(state, 10000, 9, first_shot=123) == whole
        assert drawn == [997] * 10 + [30]

    def test_a_million_shots_draw_as_one_chunk(self, monkeypatch):
        drawn = self._record_draws(monkeypatch)
        sample_shots(HALF, 10**6, 1)
        assert drawn == [10**6]

    @pytest.mark.parametrize("first_shot, shots", [(-3, 10), (2**64 - 5, 6), (2**64, 1)])
    def test_rejects_shots_outside_the_counter_range(self, first_shot, shots):
        with pytest.raises(ValueError, match="range"):
            sample_shots(HALF, shots, 1, first_shot=first_shot)

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
