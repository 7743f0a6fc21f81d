"""The dynamic stop rule: the `stop` section of a run config.

A run stops after an epoch once each of a metric's last ``window`` per-epoch
values has reached ``threshold``. The epoch-0 snapshot of the initial design
counts as a value, but only an optimization epoch can end the run. The
direction is fixed by the metric: ``hv``, ``feasible_count`` and ``evals``
grow as a run goes on and stop at or above the threshold; ``ecov``, the
share of the front that is new this epoch, and ``nrmse`` stop at or below
it. Fewer than ``window`` values, or a NaN among them, never stop a run.
Without a metric the run uses every epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["StopConfig", "STOP_METRICS"]

STOP_METRICS = ("hv", "feasible_count", "nrmse", "ecov", "evals")
_AT_OR_ABOVE = ("hv", "feasible_count", "evals")


@dataclass
class StopConfig:
    metric: str | None = None
    window: int = 1
    threshold: float | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.metric is None:
            if self.threshold is not None:
                raise ValueError("threshold needs a metric")
            return
        if self.metric not in STOP_METRICS:
            raise ValueError(f"metric must be one of {list(STOP_METRICS)}, not {self.metric!r}")
        if self.threshold is None:
            raise ValueError(f"metric {self.metric!r} needs a threshold")
        self.threshold = float(self.threshold)
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")

    def reached(self, series: dict[str, list[float]]) -> bool:
        """Whether the metric's last ``window`` values in ``series`` (metric
        name to per-epoch values) have all reached the threshold; a NaN
        compares false, so it never has."""
        if self.metric is None:
            return False
        values = series[self.metric][-self.window:]
        if len(values) < self.window:
            return False
        if self.metric in _AT_OR_ABOVE:
            return all(v >= self.threshold for v in values)
        return all(v <= self.threshold for v in values)
