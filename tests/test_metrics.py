import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surmoo.metrics import (
    NormalizationContext,
    epsilon_additive,
    hv_auc,
    hypervolume,
    igd,
    normalized_hypervolume,
    normalized_hypervolumes,
    nrmse,
    set_coverage,
    shared_normalization,
)

from conftest import oracle_dominates, oracle_hypervolume_inclusion_exclusion


class TestHypervolume:
    def test_single_point_unit_box(self):
        assert hypervolume([[0.0, 0.0]], [1.0, 1.0]) == pytest.approx(1.0)

    def test_inclusion_exclusion_hand_case(self):
        front = [[0.5, 0.5], [0.25, 0.75]]
        assert hypervolume(front, [1.0, 1.0]) == pytest.approx(0.3125)

    def test_empty_front(self):
        assert hypervolume(np.empty((0, 2)), [1.0, 1.0]) == 0.0

    def test_point_beyond_reference_clipped(self):
        assert hypervolume([[2.0, 0.0], [0.0, 0.5]], [1.0, 1.0]) == pytest.approx(0.5)

    def test_duplicates_ignored(self):
        assert hypervolume([[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0]) == pytest.approx(0.25)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_inclusion_exclusion_oracle(self, q, rng):
        for _ in range(40):
            count = int(rng.integers(1, 9))
            front = rng.uniform(0.0, 1.0, (count, q))
            ref = np.full(q, 1.1)
            exact = hypervolume(front, ref)
            oracle = oracle_hypervolume_inclusion_exclusion(front, ref)
            assert exact == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    @given(
        st.integers(2, 4).flatmap(
            lambda q: st.lists(
                st.lists(st.integers(0, 6), min_size=q, max_size=q),
                min_size=1,
                max_size=10,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_grid_fronts_with_ties_match_oracle(self, rows):
        # integer grid: duplicates, shared coordinates, and points on or
        # beyond the reference (5) are all common
        front = np.array(rows, dtype=float)
        ref = np.full(front.shape[1], 5.0)
        exact = hypervolume(front, ref)
        oracle = oracle_hypervolume_inclusion_exclusion(front, ref)
        assert exact == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_monotone_under_insertion(self, rng):
        ref = np.full(3, 1.0)
        front = rng.uniform(0.0, 1.0, (6, 3))
        base = hypervolume(front, ref)
        extended = np.vstack([front, rng.uniform(0.0, 1.0, (1, 3))])
        assert hypervolume(extended, ref) >= base - 1e-12

    def test_dominating_front_has_larger_volume(self, rng):
        ref = np.full(2, 1.0)
        front = rng.uniform(0.2, 0.9, (5, 2))
        better = front - 0.1
        assert hypervolume(better, ref) >= hypervolume(front, ref)

    def test_too_many_objectives_rejected(self):
        with pytest.raises(ValueError, match="up to 6"):
            hypervolume(np.zeros((1, 7)), np.ones(7))

    def test_monte_carlo_agreement(self, rng):
        samples = 200_000
        for q in (2, 3):
            front = rng.uniform(0.2, 0.9, (6, q))
            ref = np.full(q, 1.1)
            low = front.min(axis=0)
            box = rng.uniform(low, ref, (samples, q))
            dominated = np.zeros(samples, dtype=bool)
            for point in front:
                dominated |= np.all(box >= point, axis=1)
            box_vol = float(np.prod(ref - low))
            p_hat = dominated.mean()
            estimate = box_vol * p_hat
            sigma = box_vol * np.sqrt(p_hat * (1 - p_hat) / samples)
            assert abs(hypervolume(front, ref) - estimate) < 3 * sigma + 1e-12


class TestNormalizedHypervolume:
    def test_theoretical_maximum_q4(self):
        assert 1.1**4 == pytest.approx(1.4641)
        context = NormalizationContext(np.ones(4), np.zeros(4))
        assert normalized_hypervolume([[0.0] * 4], context) == pytest.approx(1.4641)

    def test_single_point_at_nadir(self):
        fronts = [np.array([[2.0, 4.0]])]
        values = normalized_hypervolumes(fronts)
        assert values[0] == pytest.approx((1.1 - 1.0) ** 2)

    def test_front_at_ideal_point(self):
        context = NormalizationContext(np.array([1.0, 1.0]), np.zeros(2))
        assert normalized_hypervolume([[0.0, 0.0]], context) == pytest.approx(1.21)

    def test_shared_nadir_is_componentwise_max(self):
        fronts = [np.array([[1.0, 5.0]]), np.array([[3.0, 2.0]])]
        context = shared_normalization(fronts)
        assert np.allclose(context.nadir, [3.0, 5.0])

    def test_nonpositive_nadir_shift_rule(self):
        fronts = [np.array([[-2.0, 1.0], [-5.0, 2.0]])]
        context = shared_normalization(fronts)
        # first objective is shifted by its minimum before dividing
        assert context.shift[0] == -5.0 and context.shift[1] == 0.0
        unit = context.normalize(fronts[0])
        assert np.all(unit >= 0.0)

    def test_mixed_sign_objective_is_shifted(self):
        front = np.array([[-200.0, 1.0], [3.0, 0.5]])
        context = shared_normalization([front])
        assert context.shift[0] == -200.0 and context.shift[1] == 0.0
        assert np.all(context.normalize(front) >= 0.0)
        assert normalized_hypervolumes([front])[0] <= 1.1**2

    def test_empty_front_scores_zero(self):
        context = NormalizationContext(np.ones(2), np.zeros(2))
        assert normalized_hypervolume(np.empty((0, 2)), context) == 0.0


class TestHvAuc:
    def test_constant_series(self):
        assert hv_auc([2.0] * 5) == pytest.approx(2.0 * 4)

    def test_rising_step(self):
        assert hv_auc([0.0, 1.0]) == pytest.approx(0.5)

    def test_rise_then_hold(self):
        assert hv_auc([0.0, 1.0, 1.0]) == pytest.approx(1.5)

    def test_rejects_single_epoch(self):
        with pytest.raises(ValueError):
            hv_auc([1.0])

    @given(st.lists(st.integers(0, 2**20), min_size=2, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_equals_pure_python_trapezoid(self, ticks):
        # multiples of 2**-10 below 2**10: every half-sum and partial sum is
        # exact, so the summation order cannot matter
        series = [t / 1024.0 for t in ticks]
        expected = sum((a + b) / 2.0 for a, b in zip(series, series[1:]))
        assert hv_auc(series) == expected

    def test_needs_no_numpy_trapezoid(self, monkeypatch):
        # np.trapezoid exists only from numpy 2.0; pyproject allows 1.24
        monkeypatch.delattr(np, "trapezoid", raising=False)
        assert hv_auc([0.0, 1.0, 1.0]) == 1.5


class TestIGD:
    def test_identical_fronts(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert igd(front, front) == 0.0

    def test_hand_case(self):
        assert igd([[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(1.0)

    def test_matches_double_loop(self, rng):
        for _ in range(50):
            a = rng.random((int(rng.integers(1, 20)), 3))
            r = rng.random((int(rng.integers(1, 20)), 3))
            expected = np.mean(
                [min(np.linalg.norm(a_i - r_i) for a_i in a) for r_i in r]
            )
            assert igd(a, r) == pytest.approx(expected, rel=1e-12)

    def test_zero_iff_reference_subset(self, rng):
        r = rng.random((5, 2))
        a = np.vstack([r, rng.random((3, 2))])
        assert igd(a, r) == 0.0


class TestEpsilon:
    def test_self_comparison_of_nondominated_front(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert epsilon_additive(front, front) == 0.0

    def test_dominating_front_negative(self):
        assert epsilon_additive([[0.0, 0.0]], [[1.0, 1.0]]) == pytest.approx(-1.0)

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            a = rng.random((int(rng.integers(1, 16)), 2))
            b = rng.random((int(rng.integers(1, 16)), 2))
            expected = max(
                min(max(a_i[j] - b_i[j] for j in range(2)) for a_i in a) for b_i in b
            )
            assert epsilon_additive(a, b) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_implies_shifted_dominance(self, rng):
        for _ in range(50):
            a = rng.random((6, 2))
            b = rng.random((6, 2))
            eps = epsilon_additive(a, b)
            shifted = a - eps
            for b_i in b:
                assert any(np.all(s <= b_i + 1e-12) for s in shifted)


class TestCoverage:
    def test_total_domination(self):
        assert set_coverage([[0.0, 0.0]], [[1.0, 1.0], [2.0, 0.5]]) == 1.0

    def test_incomparable_fronts(self):
        assert set_coverage([[0.0, 1.0]], [[1.0, 0.0]]) == 0.0

    def test_equality_counts_as_covered(self):
        assert set_coverage([[1.0, 1.0]], [[1.0, 1.0]]) == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            a = rng.integers(0, 4, (int(rng.integers(1, 12)), 2)).astype(float)
            b = rng.integers(0, 4, (int(rng.integers(1, 12)), 2)).astype(float)
            expected = np.mean(
                [
                    1.0
                    if any(
                        oracle_dominates(a_i, b_i) or np.array_equal(a_i, b_i)
                        for a_i in a
                    )
                    else 0.0
                    for b_i in b
                ]
            )
            assert set_coverage(a, b) == pytest.approx(expected)


class TestNRMSE:
    def test_perfect_prediction(self):
        y = np.array([[0.0], [1.0]])
        assert nrmse(y, y) == 0.0

    def test_hand_case(self):
        y = np.array([[0.0], [1.0]])
        y_hat = np.array([[0.5], [0.5]])
        assert nrmse(y, y_hat) == pytest.approx(0.5)

    def test_joint_scaling_invariance(self, rng):
        y = rng.random((10, 3))
        y_hat = rng.random((10, 3))
        assert nrmse(10 * y, 10 * y_hat) == pytest.approx(nrmse(y, y_hat), rel=1e-12)

    def test_translation_invariance(self, rng):
        y = rng.random((10, 2))
        y_hat = rng.random((10, 2))
        assert nrmse(y + 7.0, y_hat + 7.0) == pytest.approx(nrmse(y, y_hat), rel=1e-9)

    def test_zero_range_column_excluded_with_warning(self):
        y = np.array([[0.0, 5.0], [1.0, 5.0]])
        y_hat = np.array([[0.5, 5.0], [0.5, 6.0]])
        with pytest.warns(UserWarning, match="zero range"):
            value = nrmse(y, y_hat)
        assert value == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nrmse(np.zeros((3, 2)), np.zeros((3, 3)))
