"""`config.StopConfig`: parsing, and the rule read off a run's per-epoch
`EpochMetrics` records."""

import math

import pytest

from surmoo.config import STOP_METRICS, StopConfig
from surmoo.core import EpochMetrics

# every field but the one a test sets is NaN or 0, so a rule that reads
# the wrong field fails the test
_BLANK = dict(
    cumulative_evals=0, hv_norm=math.nan, feasible_count=0, nrmse=math.nan, mode="o",
    feasolve_steps=0, wall_seconds=math.nan, ecov=math.nan,
)
_FIELD = {"hv": "hv_norm", "evals": "cumulative_evals"}


def epochs(metric, values):
    """One `EpochMetrics` per value, holding it in the field ``metric`` names."""
    name = _FIELD.get(metric, metric)
    return [EpochMetrics(**{**_BLANK, "epoch": e, name: v}) for e, v in enumerate(values)]


class TestParsing:
    def test_unknown_metric_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="metric must be one of"):
            StopConfig(metric="bogus", threshold=1.0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ValueError, match="window must be at least 1"):
            StopConfig(metric="hv", window=window, threshold=0.5)

    def test_metric_without_threshold_rejected(self):
        with pytest.raises(ValueError, match="'ecov' needs a threshold"):
            StopConfig(metric="ecov", window=3)

    def test_threshold_without_metric_rejected(self):
        with pytest.raises(ValueError, match="threshold needs a metric"):
            StopConfig(threshold=0.5)

    def test_window_without_metric_rejected(self):
        # it used to load, and the run ignored it and used every epoch
        with pytest.raises(ValueError, match="window needs a metric"):
            StopConfig(window=2)

    @pytest.mark.parametrize(
        "threshold, match",
        [(math.nan, "threshold must be finite"), (-math.inf, "threshold must be finite"),
         ("x", "could not convert")],
    )
    def test_bad_threshold_rejected(self, threshold, match):
        with pytest.raises(ValueError, match=match):
            StopConfig(metric="hv", threshold=threshold)

    def test_threshold_stored_as_float(self):
        rule = StopConfig(metric="feasible_count", threshold=20)
        assert rule.threshold == 20.0 and type(rule.threshold) is float


class TestEvaluation:
    def test_no_metric_never_stops(self):
        assert not StopConfig().reached(epochs("hv", [1.0] * 5))

    @pytest.mark.parametrize("metric", ["hv", "feasible_count", "evals"])
    def test_growing_metrics_stop_at_or_above(self, metric):
        rule = StopConfig(metric=metric, window=1, threshold=20.0)
        assert not rule.reached(epochs(metric, [19.0]))
        assert rule.reached(epochs(metric, [20.0]))
        assert rule.reached(epochs(metric, [21.0]))

    @pytest.mark.parametrize("metric", ["ecov", "nrmse"])
    def test_falling_metrics_stop_at_or_below(self, metric):
        rule = StopConfig(metric=metric, window=1, threshold=0.1)
        assert not rule.reached(epochs(metric, [0.2]))
        assert rule.reached(epochs(metric, [0.1]))
        assert rule.reached(epochs(metric, [0.05]))

    def test_recent_window_aggregate(self):
        # every value in the window counts, and nothing before it
        rule = StopConfig(metric="hv", window=2, threshold=0.5)
        assert not rule.reached(epochs("hv", [0.6, 0.4, 0.7]))
        assert rule.reached(epochs("hv", [0.1, 0.6, 0.7]))

    def test_paper_example_semantics(self):
        rule = StopConfig(metric="ecov", window=3, threshold=0.1)
        converged = epochs("ecov", [1.0, 0.9, 0.05, 0.02, 0.01])
        improving = epochs("ecov", [1.0, 0.9, 0.5, 0.4, 0.3])
        assert not rule.reached(converged[:4])
        assert rule.reached(converged)
        assert not rule.reached(improving)

    def test_empty_series_is_nan_safe(self):
        assert not StopConfig(metric="hv", window=1, threshold=0.0).reached([])

    def test_window_shorter_than_requested(self):
        # a full window sets the earliest stop
        rule = StopConfig(metric="hv", window=10, threshold=0.2)
        assert not rule.reached(epochs("hv", [0.3, 0.4]))
        assert rule.reached(epochs("hv", [0.3] * 10))

    @pytest.mark.parametrize("metric", STOP_METRICS)
    def test_nan_in_window_never_stops(self, metric):
        # ecov is NaN while there is no front, nrmse while nothing was predicted
        rule = StopConfig(metric=metric, window=2, threshold=0.5)
        for values in ([math.nan, math.nan], [math.nan, 0.5], [0.5, math.nan]):
            assert not rule.reached(epochs(metric, values))
