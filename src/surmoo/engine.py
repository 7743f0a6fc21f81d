"""The surrogate-assisted optimization loop.

Each run draws an initial design, evaluates it, and then iterates epochs:
retrain the surrogate on all accumulated data, optionally derive
sensitivity-informed distribution indices, select parents from the
true-evaluated history, run NSGA-II generations entirely on surrogate
predictions, optionally refine the non-elite half of the ranked population
by gradient-based feasibility solving, evaluate the final candidates on the
true problem, and snapshot metrics. The exact evaluation
budget is initial_samples + epochs * population_size: trace re-anchoring
points, when enabled, replace the lowest-ranked explorer candidates instead
of adding evaluations.

With ``dynamic_sampling`` an epoch runs as four sub-blocks of
population_size / 4 candidates each, and the surrogate is refit on the
grown history before each one. The K CV folds that choose the training
epoch count run only in the epoch's first sub-block whose fit succeeds
(normally sub-block 0); each later sub-block retrains the final model from
scratch on all its viable rows for that count, and its schedule's
``fold_stop_epochs`` is empty. Without dynamic sampling every fit runs the
folds.

If surrogate training fails in an epoch (for example, too few viable
records), the epoch falls back to one plain NSGA-II variation step on the
same parents, ranked by their true values, and the event is logged. Both
epoch kinds draw children from `moea.offspring`. Every failed evaluation is
logged too, with its epoch, candidate index and error.

`replay` rebuilds the history and archive epoch by epoch from an evaluation
log alone; `recompute_metrics` and `surmoo report` are built on it.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import feasolve as fs
from . import moea
from .core import (
    EpochMetrics,
    EvaluationRecord,
    ParetoArchive,
    Provenance,
    RandomStream,
    RunHistory,
)
from .evaluator import evaluate_batch
from .metrics import normalized_hypervolume, nrmse, set_coverage, shared_normalization
from .problems import ProblemDefinition, check_problem_params, get_problem
from .sensitivity import compute_elasticities, indices_from_sensitivity, invert_indices
from .stopping import StopExpression
from .surrogate import JointSurrogate, SurrogateConfig
from .surrogate import train as train_surrogate
from .sampling import check_design_size, get_sampler, sample_mc

logger = logging.getLogger("surmoo")

__all__ = [
    "RunConfig",
    "SensitivityConfig",
    "RunResult",
    "run",
    "select_surrogate_mode",
    "replay",
    "recompute_metrics",
]

DYNAMIC_SUB_BLOCKS = 4
MIN_CONSTRAINT_PATTERNS = 3


@dataclass
class SensitivityConfig:
    enabled: bool = False
    inverted: bool = False


@dataclass
class RunConfig:
    """One run. The YAML config file has exactly this layout: each field is a
    key, and each dataclass-valued field is a section (see `runio`)."""

    problem: str
    problem_params: dict = field(default_factory=dict)
    seed: int = 0
    epochs: int = 25
    stop: str | None = None
    population_size: int = 100  # candidates evaluated per epoch
    generations: int = 10
    initial_samples: int = 100
    sampler: str = "slhc"
    workers: int = 1
    dynamic_sampling: bool = False  # four refits per epoch; see the module docstring
    export_traces: bool = False
    save_surrogates: bool = False
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    feasolve: fs.FeasolveConfig = field(default_factory=fs.FeasolveConfig)
    sensitivity: SensitivityConfig = field(default_factory=SensitivityConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.dynamic_sampling and self.population_size % DYNAMIC_SUB_BLOCKS:
            raise ValueError(
                f"dynamic sampling splits epochs into {DYNAMIC_SUB_BLOCKS} "
                "sub-iterations; population_size must be divisible by 4"
            )
        sub_blocks = DYNAMIC_SUB_BLOCKS if self.dynamic_sampling else 1
        explorers = self.population_size // sub_blocks // 2
        if self.feasolve.trace_samples > explorers:
            raise ValueError(
                f"trace_samples cannot exceed the explorer half of a sub-block ({explorers})"
            )
        if self.stop is not None:
            StopExpression(self.stop)  # fail at config time, not mid-run
        try:
            check_design_size(self.sampler, self.initial_samples)
        except ValueError as exc:
            raise ValueError(
                f"sampler {self.sampler!r} with initial_samples {self.initial_samples}: {exc}"
            ) from None
        check_problem_params(self.problem, self.problem_params)


@dataclass
class SensitivitySnapshot:
    epoch: int
    s_bar: np.ndarray
    eta: np.ndarray


@dataclass
class RunResult:
    config: RunConfig
    problem: ProblemDefinition
    history: RunHistory
    archive: ParetoArchive
    sensitivity: list[SensitivitySnapshot] = field(default_factory=list)
    traces: list[tuple[int, fs.DescentTrace]] = field(default_factory=list)
    surrogates: list[tuple[int, JointSurrogate]] = field(default_factory=list)


def select_surrogate_mode(flags: np.ndarray, configured: str) -> str:
    """Objective-only when the viable rows' constraint flags (see
    `RunHistory.viable_arrays`) are absent or hold fewer than
    ``MIN_CONSTRAINT_PATTERNS`` distinct rows; else the configured mode."""
    if flags.size == 0 or len(np.unique(flags, axis=0)) < MIN_CONSTRAINT_PATTERNS:
        return "o"
    return configured


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


def recompute_metrics(records) -> list[dict]:
    """Replay the derivable metric columns from an evaluation log alone.

    Reproduces epoch, cumulative_evals, hv_norm, and feasible_count exactly
    as the engine recorded them: each epoch's hypervolume is normalized by
    the nadir of the feasible history seen so far.
    """
    return [
        {
            "epoch": epoch,
            "cumulative_evals": len(history),
            "hv_norm": _archive_hv(archive, history),
            "feasible_count": len(history.feasible_records()),
        }
        for epoch, history, archive in replay(records)
    ]


def _archive_hv(archive: ParetoArchive, history: RunHistory) -> float:
    """The archive's hypervolume, normalized by the feasible history's
    nadir; 0 when nothing feasible has been found."""
    feasible = history.feasible_records()
    if not feasible or len(archive) == 0:
        return 0.0
    context = shared_normalization([np.array([r.objectives for r in feasible])])
    return normalized_hypervolume(archive.objectives(), context)


def _select_parents(
    x, y, c, count: int, problem: ProblemDefinition, stream: RandomStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best ``count`` of the viable rows ``x, y, c`` (see
    `RunHistory.viable_arrays`) by feasibility-first rank and crowding, as
    (parameters, objectives, feasibility) arrays. With fewer rows, uniform
    draws pad the parameters; padding rows have inf objectives and count as
    infeasible."""
    space, q = problem.space, problem.n_objectives
    members, objs = x.reshape(-1, space.dim), y.reshape(-1, q)
    feas = np.all(c == 1, axis=1)
    if members.shape[0]:
        keep = moea.rank_population(members, objs, feas).order[:count]
        members, objs, feas = members[keep], objs[keep], feas[keep]
    pad = count - members.shape[0]
    if pad > 0:
        members = np.vstack([members, sample_mc(space, pad, stream).points])
        objs = np.vstack([objs, np.full((pad, q), np.inf)])
        feas = np.concatenate([feas, np.zeros(pad, dtype=bool)])
    return members, objs, feas


def _evaluate_and_log(
    problem: ProblemDefinition,
    params: np.ndarray,
    provenances,
    epoch: int,
    history: RunHistory,
    archive: ParetoArchive,
    workers: int,
) -> list[EvaluationRecord]:
    results = evaluate_batch(problem, params, workers=workers)
    records = []
    for i, (result, provenance) in enumerate(zip(results, provenances)):
        if result.error is not None:
            logger.warning(
                "epoch %d: evaluation of candidate %d failed: %s", epoch, i, result.error
            )
        rec = EvaluationRecord(
            params=params[i],
            objectives=result.objectives,
            constraints=result.constraints,
            epoch=epoch,
            provenance=provenance,
        )
        history.append(rec)
        archive.insert(rec)
        records.append(rec)
    return records


def run(config: RunConfig) -> RunResult:
    problem = get_problem(config.problem, **config.problem_params)
    space = problem.space
    root = RandomStream(config.seed)
    history = RunHistory()
    archive = ParetoArchive()
    stop = StopExpression(config.stop) if config.stop else None
    sample = get_sampler(config.sampler)
    result = RunResult(config, problem, history, archive)
    series: dict[str, list[float]] = {
        "hv": [],
        "feasible_count": [],
        "nrmse": [],
        "ecov": [],
        "evals": [],
    }

    start = time.perf_counter()
    design = sample(space, config.initial_samples, root.child("init"))
    _evaluate_and_log(
        problem,
        design.points,
        [Provenance.INIT] * design.points.shape[0],
        0,
        history,
        archive,
        config.workers,
    )
    _snapshot(
        history, archive, series, 0, float("nan"), "-", 0, start, prev_front=None,
    )
    prev_front = archive.objectives() if len(archive) else None

    sub_blocks = DYNAMIC_SUB_BLOCKS if config.dynamic_sampling else 1
    n_sub = config.population_size // sub_blocks
    # the viable rows as arrays: one snapshot, taken after each evaluation,
    # serves mode selection, training, sensitivity, parents and descent
    x, y, c = history.viable_arrays()

    for epoch in range(1, config.epochs + 1):
        epoch_start = time.perf_counter()
        epoch_stream = root.child(f"epoch{epoch}")
        mode = "none"
        if config.surrogate.enabled:
            mode = select_surrogate_mode(c, config.surrogate.mode)
            if mode != config.surrogate.mode and problem.n_constraints:
                logger.info(
                    "epoch %d: surrogate mode %s falls back to o: %d distinct "
                    "constraint patterns among viable records, fewer than %d",
                    epoch, config.surrogate.mode, len(np.unique(c, axis=0)),
                    MIN_CONSTRAINT_PATTERNS,
                )
        feasolve_steps = 0
        effective_mode = mode
        nrmse_pairs: list[tuple[np.ndarray, np.ndarray]] = []
        cv_sub = cv_epochs = None  # the epoch's first successful fit and its count

        for sub in range(sub_blocks):
            sub_stream = epoch_stream.child(f"sub{sub}")
            model = None
            if mode != "none":
                cfg = replace(config.surrogate, mode=mode)
                try:
                    model, schedule = train_surrogate(
                        x, y, c, space, cfg, sub_stream.child("train"),
                        final_epochs=cv_epochs,
                    )
                except Exception as exc:
                    logger.warning(
                        "epoch %d: surrogate training failed (%s); "
                        "falling back to no-surrogate variation",
                        epoch,
                        exc,
                    )
                    model = None
                else:
                    if cv_sub is None:
                        cv_sub, cv_epochs = sub, schedule.final_epochs
                        source = f"fold stop epochs {schedule.fold_stop_epochs}"
                    else:
                        source = f"folds reused from sub-block {cv_sub}"
                    logger.info(
                        "epoch %d sub-block %d: surrogate mode %s fitted on %d viable "
                        "records; %s, final epochs %d",
                        epoch,
                        sub,
                        mode,
                        len(x),
                        source,
                        schedule.final_epochs,
                    )

            eta = np.full(space.dim, moea.ETA_DEFAULT)
            if model is not None and config.sensitivity.enabled and model.has_objective_head:
                s_bar = compute_elasticities(model, x)
                eta = indices_from_sensitivity(s_bar)
                if config.sensitivity.inverted:
                    eta = invert_indices(eta)
                result.sensitivity.append(SensitivitySnapshot(epoch, s_bar, eta))

            parents, parent_objs, parent_feas = _select_parents(
                x, y, c, n_sub, problem, sub_stream.child("parents")
            )
            provenances = [Provenance.MOEA] * n_sub
            if model is None:
                effective_mode = "none"
                ranked = moea.rank_population(parents, parent_objs, parent_feas)
                candidates = moea.offspring(
                    ranked, eta, space, sub_stream.child("variation").generator()
                )
            else:
                candidates = moea.generate(
                    parents,
                    model.predict,
                    config.generations,
                    eta,
                    space,
                    sub_stream.child("moea"),
                )
                if config.feasolve.enabled:
                    candidates, provenances, steps = _feasolve_stage(
                        candidates, model, config, x, y, epoch, result
                    )
                    feasolve_steps += steps

            new_records = _evaluate_and_log(
                problem, candidates, provenances, epoch, history, archive,
                config.workers,
            )
            x, y, c = history.viable_arrays()
            if model is not None and model.has_objective_head:
                y_pred, _ = model.predict(candidates)
                for rec, pred in zip(new_records, y_pred):
                    if rec.viable:
                        nrmse_pairs.append((rec.objectives, pred))
            if config.save_surrogates and model is not None and sub == sub_blocks - 1:
                result.surrogates.append((epoch, model))

        epoch_nrmse = _epoch_nrmse(nrmse_pairs)
        _snapshot(
            history, archive, series, epoch, epoch_nrmse, effective_mode,
            feasolve_steps, epoch_start, prev_front,
        )
        prev_front = archive.objectives() if len(archive) else None
        if stop is not None and stop.evaluate(epoch, series):
            logger.info("dynamic stop %r satisfied after epoch %d", config.stop, epoch)
            break
    return result


def _feasolve_stage(candidates, model, config, x, y, epoch, result):
    """Rank the generated population, preserve the elite half, and refine
    the rest by descent; optionally swap the lowest-ranked explorers for
    diverse trace samples. ``x`` and ``y`` are the viable history's
    parameters and objectives, for the distance and nadir targets."""
    targets = _usable_targets(config.feasolve.targets, model)
    if not targets:
        logger.warning(
            "epoch %d: no feasolve target usable in mode %r; skipping descent",
            epoch,
            model.config.mode,
        )
        return candidates, [Provenance.MOEA] * candidates.shape[0], 0
    fs_cfg = replace(config.feasolve, targets=targets)
    objs, feas = moea.ranking_inputs(model.predict, candidates)
    ranked = moea.rank_population(candidates, objs, feas)
    elite, explore = fs.hybrid_epoch_split(ranked)
    if explore.shape[0] == 0:
        return candidates, [Provenance.MOEA] * candidates.shape[0], 0
    explore_out, trace = fs.make_feasible(
        explore, model, fs_cfg, train_objectives=y, train_inputs=x
    )
    if config.export_traces:
        result.traces.append((epoch, trace))
    provenances = [Provenance.MOEA] * elite.shape[0] + [
        Provenance.FEASOLVE
    ] * explore_out.shape[0]
    batch = np.vstack([elite, explore_out])
    n_trace = min(config.feasolve.trace_samples, explore_out.shape[0])
    if n_trace > 0 and len(trace):
        picks = fs.trace_diversity_filter(trace, n_trace)
        if picks.shape[0] == n_trace:
            batch = np.vstack([batch[: batch.shape[0] - n_trace], picks])
            provenances = provenances[: len(provenances) - n_trace] + [
                Provenance.TRACE
            ] * n_trace
    return batch, provenances, len(trace)


def _usable_targets(targets, model: JointSurrogate):
    usable = []
    for t in targets:
        if t in ("objective", "zero") and not model.has_objective_head:
            continue
        if t == "constraint" and not model.has_constraint_head:
            continue
        usable.append(t)
    return tuple(usable)


def _epoch_nrmse(pairs) -> float:
    if len(pairs) < 2:
        return float("nan")
    y_true = np.array([p[0] for p in pairs])
    y_pred = np.array([p[1] for p in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nrmse(y_true, y_pred)


def _snapshot(history, archive, series, epoch, nrmse_value, mode, feasolve_steps,
              epoch_start, prev_front):
    """Record the epoch's metrics; ``wall_seconds`` runs from ``epoch_start``
    (a `time.perf_counter` reading) to after the hypervolume and coverage."""
    hv_value = _archive_hv(archive, history)
    feasible_count = len(history.feasible_records())
    current_front = archive.objectives() if len(archive) else None
    if epoch == 0 or prev_front is None or not np.size(prev_front):
        ecov = 1.0 if current_front is not None else 0.0
    elif current_front is None:
        ecov = 0.0
    else:
        ecov = set_coverage(current_front, prev_front)
    metrics = EpochMetrics(
        epoch=epoch,
        cumulative_evals=len(history),
        hv_norm=hv_value,
        feasible_count=feasible_count,
        nrmse=nrmse_value,
        mode=mode,
        feasolve_steps=feasolve_steps,
        wall_seconds=time.perf_counter() - epoch_start,
    )
    history.snapshot(metrics)
    series["hv"].append(hv_value)
    series["feasible_count"].append(float(feasible_count))
    series["nrmse"].append(nrmse_value)
    series["ecov"].append(ecov)
    series["evals"].append(float(len(history)))
