"""In-process batch evaluation.

Each row of an (N, n) parameter array is evaluated once, on a thread pool
when more than one worker is asked for; results come back in row order, so
values and ordering never depend on worker count or scheduling. A candidate
whose evaluation raises is retried once and then recorded as a NaN
(non-viable) result instead of aborting the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .problems import ProblemDefinition

__all__ = ["EvaluationResult", "evaluate_batch"]


@dataclass
class EvaluationResult:
    objectives: np.ndarray
    constraints: np.ndarray
    wall_time: float
    error: str | None = None


def _run_one(problem: ProblemDefinition, params: np.ndarray) -> EvaluationResult:
    start = time.perf_counter()
    error = None
    try:
        objectives, constraints = problem.evaluate(params)
    except Exception as first:
        try:
            objectives, constraints = problem.evaluate(params)
        except Exception:
            objectives = np.full(problem.n_objectives, np.nan)
            constraints = np.zeros(problem.n_constraints, dtype=np.int8)
            error = f"{type(first).__name__}: {first}"
    return EvaluationResult(
        objectives=np.asarray(objectives, dtype=float),
        constraints=np.asarray(constraints),  # `EvaluationRecord` checks and casts
        wall_time=time.perf_counter() - start,
        error=error,
    )


def evaluate_batch(
    problem: ProblemDefinition,
    params: np.ndarray,
    workers: int = 1,
) -> list[EvaluationResult]:
    """Evaluate every row of ``params`` exactly once; one result per row,
    in row order."""
    if workers < 1:
        raise ValueError("need at least one worker")
    run_one = partial(_run_one, problem)
    if workers == 1:
        return [run_one(x) for x in params]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, params))
