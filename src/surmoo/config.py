"""`RunConfig` and its sections, with their checks: the one home of the config
layout, which `runio` reads through `dataclasses.fields`. Loads no optimizer.

`SurrogateConfig` sets the surrogate's size and schedule, not its recipe:
every fit trains a softplus network on every viable row, with MSE on the
output normalizer's targets plus mean BCE on the constraint logits.

Descent, too, runs one recipe: Adam against hypervolume's reference with
fixed focal constants (see `feasolve`). `FeasolveConfig` keeps ``targets``
for ROADMAP item 13, and the step and stop rule that items 6 and 13 retune.

The `stop` section, `StopConfig`, is the dynamic stop rule. A run stops after
an epoch once each of a metric's last ``window`` per-epoch values has reached
``threshold``. The values are the run's `core.EpochMetrics` records, the rows
of `metrics.csv`, so a stop can be recomputed from disk: ``hv`` reads the
``hv_norm`` field, ``evals`` reads ``cumulative_evals``, and every other
metric the field of its own name. The epoch-0 snapshot of the initial design
counts as a value, but only an optimization epoch can end the run. The
direction is fixed by the metric: ``hv``, ``feasible_count`` and ``evals``
grow as a run goes on and stop at or above the threshold; ``ecov``, the share
of the front that is new this epoch, and ``nrmse`` stop at or below it. Fewer
than ``window`` values, or a NaN among them, never stop a run. Without a
metric the run uses every epoch, and a ``threshold`` or a ``window`` other
than 1 is rejected rather than ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .problems import check_problem_params
from .sampling import check_design_size

__all__ = ["RunConfig", "StopConfig", "SensitivityConfig", "SurrogateConfig", "FeasolveConfig",
           "DYNAMIC_SUB_BLOCKS", "MODES", "STOP_METRICS", "TARGETS"]

DYNAMIC_SUB_BLOCKS = 4
MODES = ("o", "c", "c+o")
STOP_METRICS = ("hv", "feasible_count", "nrmse", "ecov", "evals")
_AT_OR_ABOVE = ("hv", "feasible_count", "evals")
_STOP_FIELDS = {"hv": "hv_norm", "evals": "cumulative_evals"}  # the others: same name
TARGETS = ("objective", "constraint", "distance")


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
            if self.window != 1:
                raise ValueError("window needs a metric")
            return
        if self.metric not in STOP_METRICS:
            raise ValueError(f"metric must be one of {list(STOP_METRICS)}, not {self.metric!r}")
        if self.threshold is None:
            raise ValueError(f"metric {self.metric!r} needs a threshold")
        self.threshold = float(self.threshold)
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")

    def reached(self, metrics: list) -> bool:
        """Whether the metric's values in the last ``window`` of the run's
        `core.EpochMetrics` records have all reached the threshold; a NaN
        compares false, so it never has."""
        if self.metric is None:
            return False
        name = _STOP_FIELDS.get(self.metric, self.metric)
        values = [getattr(m, name) for m in metrics[-self.window:]]
        if len(values) < self.window:
            return False
        if self.metric in _AT_OR_ABOVE:
            return all(v >= self.threshold for v in values)
        return all(v <= self.threshold for v in values)


@dataclass
class SurrogateConfig:
    enabled: bool = True  # read by the engine; False runs plain NSGA-II epochs
    mode: str = "c+o"
    blocks: int = 2
    block_dim: int = 192
    hidden_multiplier: float = 2.0
    dropout: tuple[float, float] = (0.15, 0.0)
    learning_rate: float = 0.001
    batch_size: int = 2048
    folds: int = 3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.blocks < 1 or self.block_dim < 1:
            raise ValueError("blocks and block_dim must be positive")
        self.dropout = tuple(float(p) for p in self.dropout)
        if len(self.dropout) != 2 or not all(0.0 <= p < 1.0 for p in self.dropout):
            raise ValueError("dropout must hold two probabilities in [0, 1)")
        if self.folds < 2 or self.batch_size < 1 or self.hidden_dim < 1:
            raise ValueError("need folds >= 2, batch_size >= 1, hidden_multiplier * block_dim >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")

    @property
    def hidden_dim(self) -> int:
        return int(self.hidden_multiplier * self.block_dim)


@dataclass
class FeasolveConfig:
    enabled: bool = False  # read by the engine, like trace_samples
    targets: tuple[str, ...] = ("objective", "constraint")
    max_iters: int = 1000
    learning_rate: float = 0.001
    plateau_window: int = 50
    plateau_ratio: float = 0.01
    trace_samples: int = 0  # explorers replaced by trace re-anchoring points

    def __post_init__(self):
        if self.trace_samples < 0:
            raise ValueError("trace_samples must be non-negative")
        # a window of 0 reads the whole loss list and reports a plateau
        # after the first step; a negative one slices from the front
        if self.max_iters < 1 or self.plateau_window < 1:
            raise ValueError("max_iters and plateau_window must be at least 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        # no window's relative spread is below a ratio <= 0, so descent
        # would run every one of max_iters steps
        if not self.plateau_ratio > 0.0:
            raise ValueError("plateau_ratio must be positive")
        self.targets = tuple(self.targets)
        if not self.targets:
            raise ValueError("at least one descent target is required")
        unknown = set(self.targets) - set(TARGETS)
        if unknown:
            raise ValueError(f"unknown descent targets: {sorted(unknown)}")


@dataclass
class SensitivityConfig:
    enabled: bool = False
    inverted: bool = False


@dataclass
class RunConfig:
    """One run. The YAML config file has exactly this layout: each field is a
    key, and each dataclass-valued field is a section (see `runio`), `stop`
    among them (see `StopConfig`)."""

    problem: str
    problem_params: dict = field(default_factory=dict)
    seed: int = 0
    epochs: int = 25
    stop: StopConfig = field(default_factory=StopConfig)
    population_size: int = 100  # candidates evaluated per epoch
    generations: int = 10
    initial_samples: int = 100
    sampler: str = "slhc"
    workers: int = 1
    dynamic_sampling: bool = False  # four refits per epoch; see `engine`
    export_traces: bool = False
    save_surrogates: bool = False
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    feasolve: FeasolveConfig = field(default_factory=FeasolveConfig)
    sensitivity: SensitivityConfig = field(default_factory=SensitivityConfig)

    def __post_init__(self):
        for name in ("epochs", "generations", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.dynamic_sampling and self.population_size % DYNAMIC_SUB_BLOCKS:
            raise ValueError(
                f"dynamic sampling splits epochs into {DYNAMIC_SUB_BLOCKS} "
                "sub-iterations; population_size must be divisible by 4"
            )
        explorers = self.population_size // self.sub_blocks // 2
        if self.feasolve.trace_samples > explorers:
            raise ValueError(
                f"trace_samples cannot exceed the explorer half of a sub-block ({explorers})"
            )
        try:
            check_design_size(self.sampler, self.initial_samples)
        except ValueError as exc:
            raise ValueError(
                f"sampler {self.sampler!r} with initial_samples {self.initial_samples}: {exc}"
            ) from None
        check_problem_params(self.problem, self.problem_params)

    @property
    def sub_blocks(self) -> int:
        return DYNAMIC_SUB_BLOCKS if self.dynamic_sampling else 1
