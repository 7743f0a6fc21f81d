import threading

import numpy as np
import pytest

from surmoo.evaluator import evaluate_batch
from surmoo.problems import ProblemDefinition, make_two_sphere


def counting_problem(base, fail_on=None, fail_times=1):
    """Wrap a problem with a thread-safe call counter and optional injected
    failures for specific parameter vectors."""
    lock = threading.Lock()
    counts: dict[tuple, int] = {}
    remaining_failures: dict[tuple, int] = {}

    def evaluate(x):
        key = tuple(np.round(x, 12))
        with lock:
            counts[key] = counts.get(key, 0) + 1
            if fail_on is not None and np.allclose(x, fail_on):
                left = remaining_failures.setdefault(key, fail_times)
                if left > 0:
                    remaining_failures[key] = left - 1
                    raise RuntimeError("injected evaluation failure")
        return base.evaluate(x)

    problem = ProblemDefinition(
        name=base.name,
        space=base.space,
        n_objectives=base.n_objectives,
        n_constraints=base.n_constraints,
        evaluate=evaluate,
    )
    return problem, counts


class TestEvaluateBatch:
    def test_worker_counts_agree(self, rng):
        base = make_two_sphere(3)
        batch = rng.random((16, 3))
        single = evaluate_batch(base, batch, workers=1)
        parallel = evaluate_batch(base, batch, workers=8)
        assert len(single) == len(parallel) == 16
        for row, a, b in zip(batch, single, parallel):
            objectives, _ = base.evaluate(row)
            assert np.array_equal(a.objectives, objectives)
            assert np.array_equal(b.objectives, objectives)
            assert np.array_equal(a.constraints, b.constraints)

    def test_empty_batch(self):
        base = make_two_sphere(2)
        assert evaluate_batch(base, np.empty((0, 2))) == []

    def test_exactly_once_per_candidate(self, rng):
        base = make_two_sphere(2)
        problem, counts = counting_problem(base)
        batch = rng.random((10, 2))
        evaluate_batch(problem, batch, workers=4)
        assert sorted(counts.values()) == [1] * 10

    def test_persistent_failure_becomes_nan(self, rng):
        base = make_two_sphere(2)
        bad = np.array([0.5, 0.5])
        problem, counts = counting_problem(base, fail_on=bad, fail_times=10)
        members = np.vstack([rng.random((3, 2)), bad])
        results = evaluate_batch(problem, members, workers=2)
        assert len(results) == 4
        assert np.all(np.isnan(results[3].objectives))
        assert results[3].error is not None
        for r in results[:3]:
            assert np.all(np.isfinite(r.objectives))

    def test_transient_failure_retried_once(self, rng):
        base = make_two_sphere(2)
        bad = np.array([0.25, 0.25])
        problem, counts = counting_problem(base, fail_on=bad, fail_times=1)
        results = evaluate_batch(problem, bad[None, :], workers=1)
        assert np.all(np.isfinite(results[0].objectives))
        assert results[0].error is None
        assert counts[tuple(np.round(bad, 12))] == 2  # original + retry

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            evaluate_batch(make_two_sphere(2), np.zeros((1, 2)), workers=0)

    def test_wall_time_recorded(self, rng):
        results = evaluate_batch(make_two_sphere(2), rng.random((2, 2)))
        assert all(r.wall_time >= 0.0 for r in results)
