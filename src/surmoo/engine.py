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

`_sub_block` runs one sub-block, from the fit to the evaluation, and returns
a `SubBlock` record of it (see that class) with its model; `run` keeps the
records in `RunResult.blocks`, and `_snapshot` reads each epoch's mode,
descent steps and NRMSE from them into its `EpochMetrics`. The columns the
log determines come from `_log_columns`, which `recompute_metrics` replays.
The model stays out of the record, so a run keeps only the models that
``save_surrogates`` asks for. The surrogate stack (`surrogate`,
`feasolve`, `sensitivity`) loads on the first fit: training and sensitivity
go through this module's delegates `train_surrogate` and
`compute_elasticities`, which tests and tracing patch.

With ``dynamic_sampling`` an epoch runs as four sub-blocks of
population_size / 4 candidates each, and the surrogate is refit on the
grown history before each one. The K CV folds that choose the training
epoch count, the mean of their best-validation epochs, run only in the
epoch's first sub-block whose fit succeeds (normally sub-block 0); each
later sub-block fits the final model on all its viable rows, and its
schedule's fold lists are empty. Such a fit starts from the weights of the
model the sub-block before it fitted and trains a quarter of that count
(`surrogate.WARM_START_FRACTION`); after a sub-block whose fit failed it
starts fresh and trains the whole count. The count is always the folds'
own, so the quarters never compound. Without dynamic sampling every fit
runs the folds.

If surrogate training raises ValueError in an epoch (too few viable
records, or an unusable config), the epoch falls back to one plain NSGA-II
variation step on the same parents, ranked by their true values, and the
event is logged; any other exception from the fit ends the run. Both
epoch kinds draw children from `moea.offspring`. Every failed evaluation is
logged too, with its epoch, candidate index and error. Every line goes
through `log`, which imports `logging` only for a line that can reach a
handler, so a quiet run never loads it.
"""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import moea
from .config import DYNAMIC_SUB_BLOCKS, RunConfig, SensitivityConfig
from .core import (
    EpochMetrics,
    EvaluationRecord,
    ParetoArchive,
    Provenance,
    RandomStream,
    RunHistory,
    feasible_rows,
    replay,
)
from .evaluator import evaluate_batch
from .metrics import normalized_hypervolume, nrmse, set_coverage, shared_normalization
from .problems import ProblemDefinition, get_problem
from .sampling import get_sampler, sample_mc

if TYPE_CHECKING:  # the surrogate stack loads on the first fit
    from .feasolve import DescentTrace
    from .surrogate import JointSurrogate, TrainingSchedule

__all__ = [
    "RunResult",
    "SubBlock",
    "run",
    "distinct_patterns",
    "select_surrogate_mode",
    "replay",
    "recompute_metrics",
]

MIN_CONSTRAINT_PATTERNS = 3
DEBUG, INFO, WARNING = 10, 20, 30  # `logging`'s level numbers


def log(level: int, msg: str, *args, **kwargs) -> None:
    """Send a line to the "surmoo" logger. An INFO or DEBUG line returns at
    once while `logging` is not loaded: nothing can have set a level or
    added a handler without importing it, and the root logger's default
    level, WARNING, drops such a line. Any other line imports `logging`;
    ``stacklevel=2`` keeps the caller's function and line in its record."""
    if level <= INFO and "logging" not in sys.modules:
        return
    import logging
    logging.getLogger("surmoo").log(level, msg, *args, stacklevel=2, **kwargs)


@dataclass
class SubBlock:
    """What one sub-block of an epoch did. ``schedule`` is None when no
    surrogate was fitted, ``s_bar`` when no sensitivity was taken, and
    ``trace`` unless ``export_traces`` is set; ``objective_pairs`` holds the
    (true, predicted) objectives of the viable evaluated candidates."""

    epoch: int
    sub: int
    schedule: TrainingSchedule | None
    s_bar: np.ndarray | None
    eta: np.ndarray
    descent_steps: int
    trace: DescentTrace | None
    records: list[EvaluationRecord]
    objective_pairs: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class RunResult:
    config: RunConfig
    problem: ProblemDefinition
    history: RunHistory
    archive: ParetoArchive
    blocks: list[SubBlock] = field(default_factory=list)
    surrogates: list[tuple[int, JointSurrogate]] = field(default_factory=list)


def distinct_patterns(flags: np.ndarray) -> int:
    """The number of distinct rows of 0.0/1.0 constraint flags (see
    `RunHistory.viable_arrays`), counted as a set of row bytes: what
    ``len(np.unique(flags, axis=0))`` counts, without importing ``numpy.ma``."""
    return len({row.tobytes() for row in flags})


def select_surrogate_mode(patterns: int, configured: str) -> str:
    """Objective-only when the viable rows hold fewer than
    ``MIN_CONSTRAINT_PATTERNS`` distinct constraint patterns (see
    `distinct_patterns`; none when no row is viable or the problem is
    unconstrained); else the configured mode."""
    return "o" if patterns < MIN_CONSTRAINT_PATTERNS else configured


def recompute_metrics(records) -> list[dict]:
    """Replay the `EpochMetrics` columns an evaluation log determines: a row
    per epoch of epoch, cumulative_evals, hv_norm, feasible_count and ecov,
    from `_log_columns`, which the engine recorded them with."""
    rows, front = [], None
    for epoch, history, archive in replay(records):
        columns, front = _log_columns(history, archive, front)
        rows.append({"epoch": epoch, **columns})
    return rows


def _log_columns(history: RunHistory, archive: ParetoArchive, prev_front):
    """The `EpochMetrics` columns the log determines after an epoch, and the
    epoch's front (None while the archive is empty), the next epoch's
    ``prev_front``. ``hv_norm`` is normalized by the nadir of the feasible
    history so far; ``ecov`` is 1 for the first front, NaN without one."""
    feasible = history.feasible_records()
    front = archive.objectives() if len(archive) else None
    if front is None:  # the archive holds feasible records only
        hv_norm, ecov = 0.0, float("nan")
    else:
        context = shared_normalization([np.array([r.objectives for r in feasible])])
        hv_norm = normalized_hypervolume(front, context)
        ecov = 1.0 if prev_front is None else 1.0 - set_coverage(prev_front, front)
    columns = dict(cumulative_evals=len(history), hv_norm=hv_norm,
                   feasible_count=len(feasible), ecov=ecov)
    return columns, front


def train_surrogate(*args, **kwargs):
    from .surrogate import train
    return train(*args, **kwargs)


def compute_elasticities(model, inputs):
    from .sensitivity import compute_elasticities
    return compute_elasticities(model, inputs)


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
    feas = feasible_rows(c)
    if members.shape[0]:
        keep = moea.rank_population(members, objs, feas).order[:count]
        members, objs, feas = members[keep], objs[keep], feas[keep]
    pad = count - members.shape[0]
    if pad > 0:
        members = np.vstack([members, sample_mc(space, pad, stream)])
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
            log(WARNING, "epoch %d: evaluation of candidate %d failed: %s",
                epoch, i, result.error)
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
    root = RandomStream(config.seed)
    history = RunHistory()
    archive = ParetoArchive()
    result = RunResult(config, problem, history, archive)

    start = time.perf_counter()
    design = get_sampler(config.sampler)(problem.space, config.initial_samples, root.child("init"))
    provenances = [Provenance.INIT] * design.shape[0]
    _evaluate_and_log(problem, design, provenances, 0, history, archive, config.workers)
    front = _snapshot(history, archive, 0, [], "-", start, prev_front=None)

    for epoch in range(1, config.epochs + 1):
        epoch_start = time.perf_counter()
        epoch_stream = root.child(f"epoch{epoch}")
        mode = "none"
        if config.surrogate.enabled:
            patterns = distinct_patterns(history.viable_arrays()[2])
            mode = select_surrogate_mode(patterns, config.surrogate.mode)
            if mode != config.surrogate.mode and problem.n_constraints:
                log(
                    INFO, "epoch %d: surrogate mode %s falls back to o: %d distinct "
                    "constraint patterns among viable records, fewer than %d",
                    epoch, config.surrogate.mode, patterns, MIN_CONSTRAINT_PATTERNS,
                )
        blocks: list[SubBlock] = []
        model = None
        for sub in range(config.sub_blocks):
            # the epoch's first fitted block: later fits reuse its epoch count
            fitted = next((b for b in blocks if b.schedule is not None), None)
            block, model = _sub_block(
                config, problem, history, archive, mode, epoch, sub,
                epoch_stream.child(f"sub{sub}"), fitted, model,
            )
            blocks.append(block)
        result.blocks += blocks
        if config.save_surrogates and model is not None:
            result.surrogates.append((epoch, model))

        front = _snapshot(history, archive, epoch, blocks, mode, epoch_start, front)
        if config.stop.reached(history.epoch_metrics):
            log(INFO, "dynamic stop %s satisfied after epoch %d", config.stop, epoch)
            break
    return result


def _sub_block(config, problem, history, archive, mode, epoch, sub, stream, fitted, previous):
    """Fit the surrogate in ``mode`` ("none": no fit) on the viable history,
    take sensitivities, generate candidates on the surrogate (plain variation
    without a model), descend, and evaluate them. ``fitted`` is the epoch's
    first block whose fit succeeded, None before it: a fit without one runs
    the CV folds, a fit with one reuses its epoch count and starts from
    ``previous``, the model of the epoch's sub-block before this one (None
    if that sub-block fitted none, or there is none). Returns the block's
    `SubBlock` and its model, None without a fit."""
    space = problem.space
    # one snapshot serves training, sensitivity, parents and descent
    x, y, c = history.viable_arrays()
    model = schedule = s_bar = trace = None
    if mode != "none":
        cfg = replace(config.surrogate, mode=mode)
        start = None if fitted is None else previous
        try:
            model, schedule = train_surrogate(
                x, y, c, space, cfg, stream.child("train"),
                final_epochs=None if fitted is None else fitted.schedule.final_epochs,
                start=start,
            )
        except ValueError as exc:  # too few finite records, or an unusable config
            log(
                WARNING, "epoch %d: surrogate training failed (%s); "
                "falling back to no-surrogate variation", epoch, exc,
            )
        else:
            if fitted is None:
                source = (
                    f"fold stop epochs {schedule.fold_stop_epochs}, "
                    f"best epochs {schedule.fold_best_epochs}"
                )
            else:
                source = f"folds reused from sub-block {fitted.sub}"
                if start is not None:
                    source += f", warm start from sub-block {sub - 1}"
            log(
                INFO, "epoch %d sub-block %d: surrogate mode %s fitted on %d viable "
                "records; %s, final epochs %d",
                epoch, sub, mode, len(x), source, schedule.final_epochs,
            )

    eta = np.full(space.dim, moea.ETA_DEFAULT)
    if model is not None and config.sensitivity.enabled:
        if model.has_objective_head:
            from .sensitivity import indices_from_sensitivity, invert_indices
            s_bar = compute_elasticities(model, x)
            eta = indices_from_sensitivity(s_bar)
            if config.sensitivity.inverted:
                eta = invert_indices(eta)
        else:
            log(INFO, "epoch %d sub-block %d: sensitivity skipped: surrogate mode %s has "
                "no objective head", epoch, sub, mode)

    n_sub = config.population_size // config.sub_blocks
    parents, parent_objs, parent_feas = _select_parents(
        x, y, c, n_sub, problem, stream.child("parents")
    )
    provenances = [Provenance.MOEA] * n_sub
    if model is None:
        ranked = moea.rank_population(parents, parent_objs, parent_feas)
        candidates = moea.offspring(ranked, eta, space, stream.child("variation").generator())
    else:
        candidates = moea.generate(
            parents, model.predict, config.generations, eta, space, stream.child("moea")
        )
        if config.feasolve.enabled:
            candidates, provenances, trace = _feasolve_stage(
                candidates, model, config, x, y, epoch
            )

    records = _evaluate_and_log(
        problem, candidates, provenances, epoch, history, archive, config.workers
    )
    pairs = []
    if model is not None and model.has_objective_head:
        y_pred, _ = model.predict(candidates)
        pairs = [(rec.objectives, pred) for rec, pred in zip(records, y_pred) if rec.viable]
    block = SubBlock(
        epoch, sub, schedule, s_bar, eta, 0 if trace is None else len(trace),
        trace if config.export_traces else None, records, pairs,
    )
    return block, model


def _feasolve_stage(candidates, model, config, x, y, epoch):
    """Rank the generated population, preserve the elite half, and refine
    the rest by descent; optionally swap the lowest-ranked explorers for
    diverse trace samples. ``x`` and ``y`` are the viable history's
    parameters and objectives, for the distance and nadir targets. Returns
    the batch, its provenances and the descent trace, which is None when no
    descent ran and the candidates come back unchanged."""
    from . import feasolve as fs
    targets = _usable_targets(config.feasolve.targets, model)
    if targets:
        objs, feas = moea.ranking_inputs(model.predict, candidates)
        elite, explore = fs.hybrid_epoch_split(moea.rank_population(candidates, objs, feas))
    else:
        log(
            WARNING, "epoch %d: no feasolve target usable in mode %r; skipping descent",
            epoch, model.config.mode,
        )
    if not targets or explore.shape[0] == 0:
        return candidates, [Provenance.MOEA] * candidates.shape[0], None
    cfg = replace(config.feasolve, targets=targets)
    explore_out, trace = fs.make_feasible(explore, model, cfg, train_objectives=y, train_inputs=x)
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
    return batch, provenances, trace


def _usable_targets(targets, model: JointSurrogate):
    usable = []
    for t in targets:
        if t == "objective" and not model.has_objective_head:
            continue
        if t == "constraint" and not model.has_constraint_head:
            continue
        usable.append(t)
    return tuple(usable)


def _snapshot(history, archive, epoch, blocks, mode, epoch_start, prev_front):
    """Record the epoch's metrics from its sub-blocks ``blocks`` (none for
    the initial design) and return its front (see `_log_columns`). The mode
    is ``mode`` unless a sub-block's fit failed, which makes it "none";
    ``wall_seconds`` runs from ``epoch_start`` (a `time.perf_counter`
    reading) to after the hypervolume and coverage."""
    pairs = [pair for block in blocks for pair in block.objective_pairs]
    nrmse_value = float("nan")
    if len(pairs) >= 2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nrmse_value = nrmse(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    columns, front = _log_columns(history, archive, prev_front)
    history.snapshot(EpochMetrics(
        epoch=epoch,
        nrmse=nrmse_value,
        mode=mode if all(b.schedule is not None for b in blocks) else "none",
        feasolve_steps=sum(b.descent_steps for b in blocks),
        wall_seconds=time.perf_counter() - epoch_start,
        **columns,
    ))
    return front
