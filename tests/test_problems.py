import numpy as np
import pytest

from surmoo.core import is_feasible
from surmoo.problems import (
    PROBLEM_REGISTRY,
    check_problem_params,
    get_problem,
    make_bnh,
    make_constrained_suite,
    make_thin_band,
    make_two_sphere,
    range_distance_objective,
)

from conftest import oracle_dominates


class TestRangeDistance:
    def test_inside_range(self):
        assert range_distance_objective(2.0, 1.0, 3.0) == 0.0

    def test_above_range(self):
        assert range_distance_objective(5.0, 1.0, 3.0) == pytest.approx(4.0)

    def test_below_range(self):
        assert range_distance_objective(0.5, 1.0, 3.0) == pytest.approx(0.25)

    def test_boundary_counts_as_inside(self):
        assert range_distance_objective(1.0, 1.0, 3.0) == 0.0

    def test_nan_propagates(self):
        assert np.isnan(range_distance_objective(float("nan"), 0.0, 1.0))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            range_distance_objective(0.0, 2.0, 1.0)


class TestTwoSphere:
    def test_at_first_anchor(self):
        problem = make_two_sphere(3)
        a, b = np.full(3, 0.25), np.full(3, 0.75)
        objs, cons = problem.evaluate(a)
        assert objs[0] == 0.0
        assert objs[1] == pytest.approx(np.sum((a - b) ** 2))
        assert cons.size == 0

    def test_at_midpoint(self):
        problem = make_two_sphere(2)
        objs, _ = problem.evaluate(np.array([0.5, 0.5]))
        gap_sq = np.sum((np.full(2, 0.25) - np.full(2, 0.75)) ** 2)
        assert np.allclose(objs, gap_sq / 4)

    def test_segment_points_never_dominated_by_grid(self):
        problem = make_two_sphere(2)
        grid_axis = np.linspace(0.0, 1.0, 41)
        grid = np.stack(np.meshgrid(grid_axis, grid_axis), axis=-1).reshape(-1, 2)
        grid_objs = np.array([problem.evaluate(g)[0] for g in grid])
        for t in np.linspace(0.0, 1.0, 9):
            x = np.full(2, 0.25) + t * (np.full(2, 0.75) - np.full(2, 0.25))
            objs, _ = problem.evaluate(x)
            assert not any(oracle_dominates(g, objs) for g in grid_objs)

    def test_off_segment_dominated_by_projection(self, rng):
        problem = make_two_sphere(2)
        a, b = np.full(2, 0.25), np.full(2, 0.75)
        ab = b - a
        for _ in range(30):
            x = rng.random(2)
            t = np.clip((x - a) @ ab / (ab @ ab), 0.0, 1.0)
            proj = a + t * ab
            if np.linalg.norm(x - proj) < 1e-9:
                continue
            assert oracle_dominates(
                problem.evaluate(proj)[0], problem.evaluate(x)[0]
            )

    def test_analytic_front(self):
        problem = make_two_sphere(2)
        front = problem.pareto_front(5)
        gap_sq = 2 * 0.25
        assert np.allclose(front[0], [0.0, gap_sq])
        assert np.allclose(front[-1], [gap_sq, 0.0])

    def test_identical_anchors_rejected(self):
        with pytest.raises(ValueError):
            make_two_sphere(2, a=np.zeros(2), b=np.zeros(2))


class TestThinBand:
    def test_center_is_feasible(self):
        problem = make_thin_band(5)
        _, cons = problem.evaluate(np.full(5, 0.5))
        assert is_feasible(cons)

    def test_origin_fails_sine_constraint(self):
        problem = make_thin_band(4)
        _, cons = problem.evaluate(np.zeros(4))
        assert cons[2] == 0

    def test_needs_three_dimensions(self):
        with pytest.raises(ValueError):
            make_thin_band(2)

    def test_reference_rate_confirmed_by_fresh_monte_carlo(self, rng):
        problem = make_thin_band(6)
        samples = rng.random((1_000_000, 6))
        c1 = np.abs(samples[:, 0] - samples[:, 1]) <= 0.02
        c2 = np.abs(samples[:, 1] - samples[:, 2]) <= 0.02
        c3 = np.sin(np.pi * samples[:, 0]) >= 0.95
        joint_rate = (c1 & c2 & c3).mean()
        stored = problem.feasibility_rate
        assert stored < 1e-3
        sigma = np.sqrt(stored * (1 - stored) / samples.shape[0])
        assert abs(joint_rate - stored) < 5 * sigma
        # each individual constraint is easy in isolation
        for rate in (c1.mean(), c2.mean(), c3.mean()):
            assert rate > 1e-2

    def test_nan_region_option(self):
        problem = make_thin_band(3, nan_outside=0.1)
        objs, cons = problem.evaluate(np.array([0.05, 0.5, 0.5]))
        assert np.all(np.isnan(objs))
        assert cons.shape == (3,)
        inside, _ = problem.evaluate(np.array([0.5, 0.5, 0.5]))
        assert np.all(np.isfinite(inside))


class TestSuite:
    def test_bnh_origin(self):
        problem = make_bnh()
        objs, cons = problem.evaluate(np.array([0.0, 0.0]))
        assert np.allclose(objs, [0.0, 50.0])  # 4*0+4*0 and (0-5)^2+(0-5)^2
        assert is_feasible(cons)

    def test_bnh_constraint_binarization(self):
        problem = make_bnh()
        # x = (0, 3): g1 = 25 + 9 > 25 -> violated
        _, cons = problem.evaluate(np.array([0.0, 3.0]))
        assert cons[0] == 0 and cons[1] == 1

    def test_srn_formulas(self):
        problem = get_problem("srn")
        objs, cons = problem.evaluate(np.array([0.0, 0.0]))
        assert np.allclose(objs, [2.0 + 4.0 + 1.0, -1.0])
        # g2: 0 - 0 + 10 <= 0 fails
        assert cons[1] == 0

    def test_tnk_interior_infeasible(self):
        problem = get_problem("tnk")
        _, cons = problem.evaluate(np.array([0.1, 0.1]))
        assert cons[0] == 0

    def test_tnk_feasible_sample(self):
        problem = get_problem("tnk")
        _, cons = problem.evaluate(np.array([1.0, 0.1]))
        assert is_feasible(cons)

    def test_suite_rates_confirmed_by_monte_carlo(self, rng):
        for problem in make_constrained_suite():
            samples = problem.space.lower + rng.random((200_000, 2)) * problem.space.span
            feasible = np.array(
                [is_feasible(problem.evaluate(s)[1]) for s in samples[:50_000]]
            )
            rate = feasible.mean()
            stored = problem.feasibility_rate
            sigma = np.sqrt(max(stored * (1 - stored), 1e-9) / feasible.size)
            assert abs(rate - stored) < 5 * sigma + 1e-3

    def test_deterministic_evaluation(self, rng):
        for problem in make_constrained_suite():
            x = problem.space.lower + rng.random(2) * problem.space.span
            first = problem.evaluate(x)
            second = problem.evaluate(x)
            assert np.array_equal(first[0], second[0])
            assert np.array_equal(first[1], second[1])


class TestRegistry:
    def test_known_names(self):
        for name in ("two_sphere", "thin_band", "bnh", "srn", "tnk"):
            assert get_problem(name).name == name

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="two_sphere"):
            get_problem("nonexistent")

    def test_params_forwarded(self):
        assert get_problem("thin_band", n=8).space.dim == 8

    def test_param_check_builds_nothing(self, monkeypatch):
        def factory(n: int = 2):
            raise AssertionError("problem built by the parameter check")

        monkeypatch.setitem(PROBLEM_REGISTRY, "probe", factory)
        check_problem_params("probe", {"n": 3})
        with pytest.raises(ValueError, match="problem_params rejected by 'probe'"):
            check_problem_params("probe", {"m": 3})
        with pytest.raises(ValueError, match="unknown problem 'nope'"):
            check_problem_params("nope", {})
