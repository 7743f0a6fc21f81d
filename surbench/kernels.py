"""Seeded microbenchmarks of the kernels under surmoo's slow layers.

Each kernel builds its inputs from the benchmark seed and times only the
call itself. Calls that take milliseconds are repeated and the median is
kept; the two slow ones (hypervolume, archive build) run once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from surmoo import metrics, moea
from surmoo.autodiff import Tensor
from surmoo.core import EvaluationRecord, ParameterSpace, ParetoArchive, RandomStream
from surmoo.surrogate import JointSurrogate, SurrogateConfig

REPEATS = 15


def _seconds(fn, repeats: int = 1) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _front(rng, n: int) -> np.ndarray:
    """n mutually non-dominated 2-D points on a convex curve."""
    t = np.sort(rng.random(n))
    return np.column_stack([t, (1.0 - t) ** 2])


def _records(rng, n: int) -> list[EvaluationRecord]:
    """Records near a front, so a good share of them enter the archive."""
    t = rng.random(n)
    objectives = np.column_stack([t, 1.0 - t + 0.05 * rng.random(n)])
    return [
        EvaluationRecord(
            params=rng.random(2),
            objectives=objectives[i],
            constraints=np.ones(2, dtype=np.int8),
            epoch=0,
            provenance="init",
        )
        for i in range(n)
    ]


def _model(dim: int, blocks: int, block_dim: int, seed: int) -> JointSurrogate:
    space = ParameterSpace(
        tuple(f"x{j}" for j in range(dim)), np.zeros(dim), np.ones(dim)
    )
    cfg = SurrogateConfig(blocks=blocks, block_dim=block_dim)
    return JointSurrogate(space, 2, 2, cfg, RandomStream(seed))


def run_kernels(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}

    front = _front(rng, 100)
    out["kernel.hv2d_100.s"] = _seconds(
        lambda: metrics.hypervolume(front, np.full(2, 1.1))
    )

    records = _records(rng, 500)
    out["kernel.archive_500.s"] = _seconds(lambda: ParetoArchive.from_records(records))

    points = rng.random((1000, 2))
    out["kernel.nds_1k.ms"] = 1e3 * _seconds(
        lambda: moea.fast_nondominated_sort(points), REPEATS
    )

    wide = _model(2, 2, 192, seed)
    x = rng.random((100, 2))
    dropout_rng = np.random.default_rng(seed)

    def fwd_bwd():
        y, c = wide.forward(Tensor(x), train=True, dropout_rng=dropout_rng)
        ((y * y).mean() + (c * c).mean()).backward()

    out["kernel.fwd_bwd_2x192.ms"] = 1e3 * _seconds(fwd_bwd, REPEATS)

    narrow = _model(6, 1, 32, seed)
    rows = rng.random((1000, 6))
    out["kernel.predict_1k.ms"] = 1e3 * _seconds(lambda: narrow.predict(rows), REPEATS)
    return out
