"""Shared domain types: search space, evaluation records, Pareto archives,
run history, and deterministic random streams.

`replay` rebuilds the history and archive epoch by epoch from an evaluation
log alone; `engine.recompute_metrics` and `surmoo report` are built on it.

The rules every module shares are written here once: feasibility (every
constraint flag is 1; `feasible_rows`, `is_feasible`), viability (every
objective finite; `EvaluationRecord.viable`), dominance (`dominance_matrix`)
and the logistic sigmoid of the constraint logits (`expit`).

All vector data is held in float64 numpy arrays; a candidate batch is an
(N, n) array with one parameter vector per row. Objective vectors may
contain NaN or inf (marking a non-viable evaluation); such records are kept
in the run history but are rejected by archives and must be filtered before
any dominance computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ParameterSpace",
    "Provenance",
    "EvaluationRecord",
    "ParetoArchive",
    "EpochMetrics",
    "RunHistory",
    "replay",
    "RandomStream",
    "is_feasible",
    "feasible_rows",
    "dominance_matrix",
    "nondominated_mask",
    "expit",
]


class Provenance(str, Enum):
    """Where an evaluated point came from."""

    INIT = "init"
    MOEA = "moea"
    FEASOLVE = "feasolve"
    TRACE = "trace"


@dataclass(frozen=True)
class ParameterSpace:
    """Bounded n-dimensional box with named dimensions.

    Bounds are strict per dimension (lower < upper); zero-width dimensions
    are rejected.
    """

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        n = len(self.names)
        if n < 1:
            raise ValueError("parameter space needs at least one dimension")
        if len(set(self.names)) != n:
            raise ValueError("parameter names must be unique")
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError("bounds must match the number of names")
        if not np.all(lower < upper):
            bad = [self.names[j] for j in np.nonzero(~(lower < upper))[0]]
            raise ValueError(f"lower < upper violated for: {', '.join(bad)}")
        lower.setflags(write=False)
        upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


def expit(x, e=None):
    """Logistic sigmoid 1 / (1 + exp(-x)), from one numpy exp of -|x|, which
    cannot overflow: large |x| gives 1 or 0 without a warning, NaN stays NaN,
    and a scalar gives a scalar. A caller that already holds
    ``e = np.exp(-np.abs(x))`` (a softplus or BCE term) passes it in. It
    differs from ``scipy.special.expit`` by at most a few ulp. scipy is not
    used: importing ``scipy.special`` for this one function cost 0.26 s and
    about 20 MB per run.
    """
    if e is None:
        e = np.exp(-np.abs(x))
    # numerator 1 where x >= 0, else e: as e <= 1, the maximum of e and the
    # 0/1 flag is that value, in e's dtype
    return np.maximum(e, x >= 0) / (1.0 + e)


def feasible_rows(flags) -> np.ndarray:
    """True for each row of constraint flags (the last axis) whose flags are
    all 1; a row without constraints is feasible."""
    return np.all(np.asarray(flags) == 1, axis=-1)


def is_feasible(flags) -> bool:
    """True iff every flag of one constraint vector is 1 (`feasible_rows`)."""
    return bool(feasible_rows(flags))


def dominance_matrix(a, b) -> np.ndarray:
    """Pairwise dominance between two point sets: ``dom[i, j]`` is True when
    ``a[i]`` is no worse than ``b[j]`` in every objective and better in at
    least one.

    Raises on NaN input or on differing objective counts. One comparison per
    objective keeps the temporaries at ``len(a) x len(b)``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("objective vectors must have equal length")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("dominance is undefined for NaN objectives")
    weakly = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    strictly = np.zeros_like(weakly)
    for k in range(a.shape[1]):
        col_a = a[:, k, None]
        col_b = b[None, :, k]
        weakly &= col_a <= col_b
        strictly |= col_a < col_b
    return weakly & strictly


def nondominated_mask(points) -> np.ndarray:
    """True for each row of ``points`` that no other row dominates.

    Identical rows do not dominate each other, so duplicates of a
    non-dominated row are all kept.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return ~dominance_matrix(points, points).any(axis=0)


@dataclass(frozen=True)
class EvaluationRecord:
    """One true evaluation: parameters, objectives, constraint outcomes."""

    params: np.ndarray
    objectives: np.ndarray
    constraints: np.ndarray
    epoch: int
    provenance: Provenance

    def __post_init__(self):
        object.__setattr__(self, "params", np.asarray(self.params, dtype=float))
        object.__setattr__(self, "objectives", np.asarray(self.objectives, dtype=float))
        object.__setattr__(self, "provenance", Provenance(self.provenance))
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")
        # checked before the cast, which would turn 0.7 into 0 and fail on 257
        flags = np.asarray(self.constraints)
        if not ((flags == 0) | (flags == 1)).all():
            raise ValueError(f"constraint flags must be 0 or 1, not {flags.tolist()}")
        object.__setattr__(self, "constraints", flags.astype(np.int8))
        for arr in (self.params, self.objectives, self.constraints):
            arr.setflags(write=False)

    @property
    def feasible(self) -> bool:
        return is_feasible(self.constraints)

    @property
    def viable(self) -> bool:
        """True when every objective is finite; a NaN (failed simulation) or
        an infinite objective makes the record non-viable."""
        return bool(np.isfinite(self.objectives).all())


class ParetoArchive:
    """Cumulative set of feasible, mutually non-dominated records.

    Records with identical objective vectors but distinct parameters are
    mutually non-dominating and both retained. Members keep their insertion
    order.
    """

    def __init__(self):
        self._records: list[EvaluationRecord] = []
        # row i is the objective vector of self._records[i]
        self._objectives = np.empty((0, 0))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[EvaluationRecord]:
        return list(self._records)

    def objectives(self) -> np.ndarray:
        return self._objectives.copy()

    def insert(self, rec: EvaluationRecord) -> bool:
        """Insert ``rec`` if feasible, viable, and not dominated.

        Returns True when the record was added. Members dominated by the
        new record are removed. Infeasible or non-viable records are rejected.
        """
        if not rec.feasible or not rec.viable:
            return False
        new = rec.objectives[None, :]
        if self._records:
            if dominance_matrix(self._objectives, new).any():
                return False
            keep = ~dominance_matrix(new, self._objectives)[0]
            self._records = [m for m, k in zip(self._records, keep) if k]
            new = np.vstack([self._objectives[keep], new])
        self._records.append(rec)
        self._objectives = new
        return True

    @classmethod
    def from_records(cls, records) -> "ParetoArchive":
        arch = cls()
        for rec in records:
            arch.insert(rec)
        return arch


@dataclass
class EpochMetrics:
    """The one per-epoch record: `metrics.csv` holds a column per field, and
    the stop rule (`config.StopConfig`) reads it. The log determines four
    columns (`engine.recompute_metrics`)."""

    epoch: int
    cumulative_evals: int
    hv_norm: float
    feasible_count: int
    nrmse: float  # NaN when no surrogate was in use this epoch
    mode: str
    feasolve_steps: int
    wall_seconds: float
    ecov: float  # share of the front the last one does not weakly dominate


class RunHistory:
    """Append-only log of evaluations plus per-epoch metric snapshots."""

    def __init__(self):
        self._records: list[EvaluationRecord] = []
        self._metrics: list[EpochMetrics] = []

    def append(self, rec: EvaluationRecord) -> None:
        if self._records and rec.epoch < self._records[-1].epoch:
            raise ValueError("record epochs must be monotone")
        self._records.append(rec)

    def snapshot(self, metrics: EpochMetrics) -> None:
        if self._metrics and metrics.epoch <= self._metrics[-1].epoch:
            raise ValueError("metric epochs must be strictly increasing")
        self._metrics.append(metrics)

    @property
    def records(self) -> list[EvaluationRecord]:
        return list(self._records)

    @property
    def epoch_metrics(self) -> list[EpochMetrics]:
        return list(self._metrics)

    def __len__(self) -> int:
        return len(self._records)

    def viable_records(self) -> list[EvaluationRecord]:
        return [r for r in self._records if r.viable]

    def feasible_records(self) -> list[EvaluationRecord]:
        return [r for r in self._records if r.viable and r.feasible]

    def viable_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(params, objectives, constraints) of the viable records in log
        order, one row per record, constraint flags as float; three (0, 0)
        arrays when no record is viable."""
        viable = self.viable_records()
        if not viable:
            return np.empty((0, 0)), np.empty((0, 0)), np.empty((0, 0))
        return (
            np.array([r.params for r in viable]),
            np.array([r.objectives for r in viable]),
            np.array([r.constraints for r in viable], dtype=float),
        )


def replay(records):
    """Rebuild a run's history and archive from its evaluation log.

    Yields ``(epoch, history, archive)`` for every epoch from 0 to the last
    one in the log, after that epoch's records were appended and inserted in
    log order, as the engine did; an epoch without records yields the state
    unchanged. The same two objects grow from one step to the next.
    """
    by_epoch: dict[int, list] = {}
    for rec in records:
        by_epoch.setdefault(rec.epoch, []).append(rec)
    history = RunHistory()
    archive = ParetoArchive()
    for epoch in range(max(by_epoch, default=-1) + 1):
        for rec in by_epoch.get(epoch, []):
            history.append(rec)
            archive.insert(rec)
        yield epoch, history, archive


_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class RandomStream:
    """A labeled, reproducible random stream.

    The same (seed, purpose) pair always yields an identical draw sequence
    regardless of thread scheduling or creation order: the underlying
    generator is seeded from the pair itself, not from global state.
    """

    seed: int
    purpose: str = "root"

    def generator(self) -> np.random.Generator:
        import hashlib  # loads OpenSSL; a log reader never draws

        digest = hashlib.sha256(self.purpose.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        return np.random.default_rng(np.random.SeedSequence([self.seed & _SEED_MASK, *words]))

    def child(self, purpose: str) -> "RandomStream":
        return RandomStream(self.seed, f"{self.purpose}/{purpose}")
