import warnings

import numpy as np
import pytest

from surmoo.core import ParameterSpace, RandomStream
from surmoo.moea import (
    DistributionIndices,
    constrained_tournament,
    crowding_distance,
    fast_nondominated_sort,
    generate,
    offspring,
    polynomial_mutation,
    rank_population,
    sbx_crossover,
)
from surmoo.problems import make_two_sphere

from conftest import oracle_dominates, oracle_fronts


def unit_space(n):
    return ParameterSpace(tuple(f"x{i}" for i in range(n)), np.zeros(n), np.ones(n))


class FixedRng:
    """Deterministic stand-in for a Generator: returns preset uniforms."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class TestSorting:
    def test_incomparable_single_front(self):
        fronts = fast_nondominated_sort(np.array([[0, 1], [1, 0]]))
        assert len(fronts) == 1
        assert sorted(fronts[0]) == [0, 1]

    def test_chain_three_fronts(self):
        fronts = fast_nondominated_sort(np.array([[0, 0], [1, 1], [2, 2]]))
        assert [sorted(f) for f in fronts] == [[0], [1], [2]]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fast_nondominated_sort(np.array([[np.nan, 0.0]]))

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            count = int(rng.integers(1, 64))
            objs = rng.random((count, 3))
            got = [sorted(f.tolist()) for f in fast_nondominated_sort(objs)]
            assert got == oracle_fronts(objs)

    def test_duplicates_share_front(self):
        fronts = fast_nondominated_sort(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert len(fronts) == 1


class TestCrowding:
    def test_single_point(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))

    def test_two_points_both_boundary(self):
        dist = crowding_distance(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert np.all(np.isinf(dist))

    def test_interior_hand_case(self):
        dist = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == pytest.approx(2.0)

    def test_zero_range_contributes_nothing(self):
        dist = crowding_distance(np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]))
        assert dist[1] == pytest.approx(1.0)  # only the varying objective counts

    def test_infinite_objectives_give_no_nan(self):
        # parents with no viable record are ranked with inf objectives
        inf = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = crowding_distance(np.array([[1, 2], [inf, inf], [inf, inf], [0.5, 3]]))
            assert np.array_equal(dist, [inf, inf, inf, inf])
            dist = crowding_distance(
                np.array([[1, 2], [inf, inf], [inf, inf], [inf, inf], [0.5, 3]])
            )
            assert np.array_equal(dist, [inf, inf, 0.0, inf, inf])
            dist = crowding_distance(np.array([[inf, 1.0], [inf, 2.0], [inf, 3.0]]))
            assert np.array_equal(dist, [inf, 1.0, inf])

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_objectives_match_the_plain_formula(self, seed):
        rng = np.random.default_rng(seed)
        objs = rng.integers(0, 4, (12, 3)) * rng.random(3)  # ties on a grid
        expected = np.zeros(len(objs))
        for j in range(objs.shape[1]):
            order = np.argsort(objs[:, j], kind="stable")
            expected[order[[0, -1]]] = np.inf
            span = objs[order[-1], j] - objs[order[0], j]
            if span > 0.0:
                expected[order[1:-1]] += (objs[order[2:], j] - objs[order[:-2], j]) / span
        assert np.array_equal(crowding_distance(objs), expected)


class TestTournament:
    def _ranked(self):
        members = np.zeros((4, 2))
        return rank_population(
            members,
            np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [2.0, 2.0]]),
            np.array([True, True, True, False]),
        )

    def test_feasible_beats_infeasible(self):
        ranked = self._ranked()
        assert constrained_tournament(1, 3, ranked, FixedRng(0.3)) == 1

    def test_lower_front_wins(self):
        ranked = self._ranked()
        assert constrained_tournament(0, 1, ranked, FixedRng(0.3)) == 0

    def test_crowding_breaks_front_ties(self):
        members = np.zeros((3, 2))
        ranked = rank_population(
            members,
            np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]),
            np.array([True, True, True]),
        )
        # boundary point (inf crowding) beats the interior point
        assert constrained_tournament(0, 1, ranked, FixedRng(0.3)) == 0

    def test_coin_flip_on_full_tie(self):
        members = np.zeros((2, 2))
        ranked = rank_population(
            members, np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([True, True])
        )
        assert constrained_tournament(0, 1, ranked, FixedRng(0.3)) == 0
        assert constrained_tournament(0, 1, ranked, FixedRng(0.9)) == 1


class TestSBX:
    def test_median_draw_returns_parents(self):
        space = unit_space(3)
        indices = DistributionIndices.default(3)
        p1 = np.array([0.2, 0.4, 0.6])
        p2 = np.array([0.3, 0.1, 0.9])
        c1, c2 = sbx_crossover(p1, p2, indices, space, FixedRng(0.5))
        assert np.allclose(c1, p1) and np.allclose(c2, p2)

    def test_identical_parents_fixed_point(self, rng):
        space = unit_space(4)
        p = rng.random(4)
        for eta in (1.0, 30.0):
            indices = DistributionIndices.default(4, eta)
            c1, c2 = sbx_crossover(p, p, indices, space, rng)
            assert np.allclose(c1, p) and np.allclose(c2, p)

    def test_children_within_bounds(self, rng):
        space = unit_space(5)
        indices = DistributionIndices.default(5)
        for _ in range(50):
            c1, c2 = sbx_crossover(rng.random(5), rng.random(5), indices, space, rng)
            assert np.all((c1 >= 0) & (c1 <= 1)) and np.all((c2 >= 0) & (c2 <= 1))

    def test_larger_eta_concentrates_children(self):
        # 1e5 independent crossovers vectorized as dimensions
        trials = 100_000
        gen = np.random.default_rng(99)
        space = ParameterSpace(
            tuple(f"d{i}" for i in range(trials)),
            np.full(trials, -100.0),
            np.full(trials, 100.0),
        )
        p1 = np.full(trials, 0.3)
        p2 = np.full(trials, 0.7)
        spreads = {}
        for eta in (1.0, 30.0):
            indices = DistributionIndices(np.full(trials, eta), np.full(trials, eta))
            c1, _ = sbx_crossover(p1, p2, indices, space, gen)
            spreads[eta] = np.abs(c1 - p1).mean()
        assert spreads[30.0] < spreads[1.0]


class TestPolynomialMutation:
    # one-dimensional points: the mutation rate 1/n is 1, so every draw mutates

    def test_median_draw_no_displacement(self):
        space = unit_space(1)
        p = np.array([0.2])
        out = polynomial_mutation(p, DistributionIndices.default(1), space, FixedRng(0.5))
        # u = 0.5 makes delta exactly 0 even though the coordinate mutates
        assert np.allclose(out, p)

    def test_mean_step_decreases_in_eta(self):
        gen = np.random.default_rng(7)
        space = ParameterSpace(("d",), [-100.0], [100.0])
        p = np.zeros(1)
        means = []
        for eta in (1.0, 10.0, 30.0):
            indices = DistributionIndices([eta], [eta])
            steps = [polynomial_mutation(p, indices, space, gen) - p for _ in range(5000)]
            means.append(np.abs(steps).mean())
        assert means[0] > means[1] > means[2]


def exact_sphere_predictor(problem):
    def predictor(batch):
        objs = np.array([problem.evaluate(row)[0] for row in batch])
        return objs, None

    return predictor


def segment_distance(points, a, b):
    ab = b - a
    t = np.clip(((points - a) @ ab) / (ab @ ab), 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


class TestGenerate:
    def setup_method(self):
        self.problem = make_two_sphere(2)
        self.space = self.problem.space
        self.indices = DistributionIndices.default(2)

    def _start_pop(self, size=16):
        gen = np.random.default_rng(123)
        return gen.random((size, 2))

    def test_population_size_invariant(self):
        pop = self._start_pop()
        out = generate(
            pop, exact_sphere_predictor(self.problem), 5, self.indices,
            self.space, RandomStream(1, "gen"),
        )
        assert out.shape == pop.shape

    def test_bounds_respected(self):
        out = generate(
            self._start_pop(), exact_sphere_predictor(self.problem), 5,
            self.indices, self.space, RandomStream(2, "gen"),
        )
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_determinism(self):
        runs = [
            generate(
                self._start_pop(), exact_sphere_predictor(self.problem), 4,
                self.indices, self.space, RandomStream(3, "gen"),
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_offspring_fill_the_population_inside_the_box(self):
        members = self._start_pop(9)
        objs, _ = exact_sphere_predictor(self.problem)(members)
        ranked = rank_population(members, objs, np.ones(9, dtype=bool))
        runs = [
            offspring(ranked, self.indices, self.space, np.random.default_rng(5))
            for _ in range(2)
        ]
        assert runs[0].shape == (ranked.size, 2)
        assert np.all(runs[0] >= 0.0) and np.all(runs[0] <= 1.0)
        assert np.array_equal(runs[0], runs[1])

    def test_front_moves_toward_pareto_segment(self):
        a, b = np.full(2, 0.25), np.full(2, 0.75)
        predictor = exact_sphere_predictor(self.problem)
        pop = self._start_pop(20)

        def front_distance(members):
            objs, _ = predictor(members)
            front = fast_nondominated_sort(objs)[0]
            return segment_distance(members[front], a, b).mean()

        before = front_distance(pop)
        out = generate(pop, predictor, 10, self.indices, self.space, RandomStream(4, "gen"))
        after = front_distance(out)
        assert after < before

    def test_all_infeasible_degrades_to_objective_fronts(self):
        objs = np.random.default_rng(0).random((12, 2))
        all_infeasible = rank_population(
            np.zeros((12, 2)), objs, np.zeros(12, dtype=bool)
        )
        all_feasible = rank_population(
            np.zeros((12, 2)), objs, np.ones(12, dtype=bool)
        )
        assert np.array_equal(all_infeasible.front_index, all_feasible.front_index)

    def test_nan_prediction_gets_worst_rank(self):
        objs = np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])
        ranked = rank_population(np.zeros((3, 2)), objs, np.ones(3, dtype=bool))
        assert ranked.front_index[1] == ranked.front_index.max()
        assert not ranked.feasible[1]

    def test_elitism_quality_never_regresses(self):
        # the new best front is never dominated by the previous generation's best
        problem = self.problem
        predictor = exact_sphere_predictor(problem)
        pop = self._start_pop(12)
        prev_objs, _ = predictor(pop)
        prev_best = prev_objs[fast_nondominated_sort(prev_objs)[0]]
        for g in range(5):
            pop = generate(
                pop, predictor, 1, self.indices, self.space,
                RandomStream(50 + g, "gen"),
            )
            objs, _ = predictor(pop)
            new_front = objs[fast_nondominated_sort(objs)[0]]
            for new_point in new_front:
                assert not any(oracle_dominates(old, new_point) for old in prev_best)
            prev_best = new_front
