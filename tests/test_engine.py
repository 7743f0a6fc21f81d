import re
import time
from dataclasses import replace

import numpy as np
import pytest

from surmoo import engine, surrogate
from surmoo.core import EvaluationRecord, ParetoArchive, RandomStream, RunHistory
from surmoo.engine import (
    RunConfig,
    SensitivityConfig,
    recompute_metrics,
    replay,
    run,
    select_surrogate_mode,
)
from surmoo.feasolve import FeasolveConfig
from surmoo.moea import rank_population
from surmoo.problems import get_problem
from surmoo.stopping import StopConfig
from surmoo.surrogate import SurrogateConfig
from surmoo.surrogate import train as train_surrogate

TINY_SURROGATE = dict(blocks=1, block_dim=12, batch_size=256)


def small_config(**overrides):
    base = dict(
        problem="two_sphere",
        problem_params={"n": 2},
        seed=11,
        epochs=2,
        population_size=10,
        initial_samples=16,
        generations=3,
        surrogate=SurrogateConfig(mode="o", **TINY_SURROGATE),
    )
    base.update(overrides)
    return RunConfig(**base)


def flags_with_patterns(patterns):
    """The constraint-flag rows `RunHistory.viable_arrays` gives for one
    record per pattern."""
    history = RunHistory()
    for i, pattern in enumerate(patterns):
        history.append(
            EvaluationRecord(
                np.array([0.1 * i, 0.2]), np.array([1.0, 2.0]),
                np.array(pattern, dtype=np.int8), 0, "init",
            )
        )
    return history.viable_arrays()[2]


class TestBudget:
    def test_single_epoch_exact(self):
        result = run(small_config(epochs=1))
        assert len(result.history) == 16 + 10

    def test_multi_epoch_exact(self):
        result = run(small_config(epochs=3))
        assert len(result.history) == 16 + 3 * 10
        for m in result.history.epoch_metrics:
            assert m.cumulative_evals == 16 + m.epoch * 10

    def test_feasolve_and_trace_do_not_change_budget(self):
        config = small_config(
            problem="bnh",
            problem_params={},
            epochs=2,
            surrogate=SurrogateConfig(mode="c+o", **TINY_SURROGATE),
            feasolve=FeasolveConfig(
                enabled=True, targets=("objective",), max_iters=30, trace_samples=2
            ),
        )
        result = run(config)
        assert len(result.history) == 16 + 2 * 10

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            RunConfig(problem="bnh", workers=0)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"initial_samples": 15}, "sampler 'slhc' with initial_samples 15: .*use 16"),
            ({"sampler": "halton"}, "unknown sampling scheme 'halton'"),
            ({"problem_params": {"bogus": 2}}, "problem_params rejected by 'two_sphere'"),
            ({"problem": "tnk", "problem_params": {"n": 3}}, "problem_params rejected by 'tnk'"),
            ({"problem": "zdt1"}, "unknown problem 'zdt1'"),
        ],
    )
    def test_unrunnable_design_or_problem_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_config(**overrides)

    def test_odd_design_allowed_where_the_sampler_takes_it(self):
        assert small_config(initial_samples=15, sampler="lhc").initial_samples == 15

    def test_trace_samples_bounds_checked(self):
        with pytest.raises(ValueError, match="non-negative"):
            FeasolveConfig(trace_samples=-1)
        with pytest.raises(ValueError, match="explorer half"):
            RunConfig(problem="bnh", population_size=10,
                      feasolve=FeasolveConfig(trace_samples=6))


class TestDeterminism:
    def test_identical_seeds_identical_histories(self):
        a = run(small_config())
        b = run(small_config())
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history.records, b.history.records):
            assert np.array_equal(ra.params, rb.params)
            assert np.array_equal(ra.objectives, rb.objectives)
            assert ra.provenance == rb.provenance

    def test_worker_count_does_not_change_results(self):
        a = run(small_config(workers=1))
        b = run(small_config(workers=8))
        for ra, rb in zip(a.history.records, b.history.records):
            assert np.array_equal(ra.params, rb.params)
            assert np.array_equal(ra.objectives, rb.objectives)

    def test_different_seeds_differ(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert not np.array_equal(
            a.history.records[-1].params, b.history.records[-1].params
        )


class TestArchiveAndMetrics:
    def test_hv_nondecreasing_on_two_sphere(self):
        result = run(small_config(epochs=5, population_size=20, seed=7))
        series = [m.hv_norm for m in result.history.epoch_metrics]
        assert len(series) == 6  # epoch 0 included
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_incremental_archive_matches_recompute(self):
        result = run(small_config(epochs=3))
        *_, (_, _, recomputed) = replay(result.history.records)
        got = sorted(map(tuple, result.archive.objectives()))
        expected = sorted(map(tuple, recomputed.objectives()))
        assert got == expected

    def test_recompute_metrics_round_trip(self):
        result = run(small_config(epochs=3))
        rows = recompute_metrics(result.history.records)
        for row, m in zip(rows, result.history.epoch_metrics):
            assert row["epoch"] == m.epoch
            assert row["cumulative_evals"] == m.cumulative_evals
            assert row["feasible_count"] == m.feasible_count
            assert row["hv_norm"] == pytest.approx(m.hv_norm, rel=1e-12, abs=1e-15)

    def test_wall_seconds_include_the_hypervolume(self, monkeypatch):
        delay = 0.05
        real = engine.normalized_hypervolume

        def slow(front, context):
            time.sleep(delay)
            return real(front, context)

        monkeypatch.setattr(engine, "normalized_hypervolume", slow)
        result = run(small_config(epochs=2, surrogate=SurrogateConfig(enabled=False)))
        walls = [m.wall_seconds for m in result.history.epoch_metrics]
        assert len(walls) == 3
        assert all(w >= delay for w in walls)

    def test_epoch_zero_metrics_on_initial_design(self):
        result = run(small_config(epochs=1))
        first = result.history.epoch_metrics[0]
        assert first.epoch == 0
        assert first.cumulative_evals == 16
        assert first.mode == "-"
        assert np.isnan(first.nrmse)


class TestModeSelection:
    def test_single_pattern_falls_back(self):
        flags = flags_with_patterns([(1, 1)] * 5)
        assert select_surrogate_mode(flags, "c+o") == "o"

    def test_two_patterns_fall_back(self):
        flags = flags_with_patterns([(1, 1), (0, 1), (1, 1)])
        assert select_surrogate_mode(flags, "c+o") == "o"

    def test_three_patterns_keep_joint(self):
        flags = flags_with_patterns([(1, 1, 1), (1, 0, 1), (0, 1, 1)])
        assert select_surrogate_mode(flags, "c+o") == "c+o"
        assert select_surrogate_mode(flags, "c") == "c"

    def test_no_viable_record_gives_objective_only(self):
        assert select_surrogate_mode(RunHistory().viable_arrays()[2], "c") == "o"

    def test_unconstrained_problem_always_objective_only(self):
        flags = flags_with_patterns([(), (), ()])
        assert select_surrogate_mode(flags, "c+o") == "o"

    def test_objective_only_config_unchanged(self):
        flags = flags_with_patterns([(1,), (0,)])
        assert select_surrogate_mode(flags, "o") == "o"

    def test_constrained_fallback_says_why_once_per_epoch(self, caplog):
        # BNH's box holds only the (1, 1) and (0, 1) constraint patterns
        config = small_config(
            problem="bnh", problem_params={}, epochs=2,
            surrogate=SurrogateConfig(mode="c", **TINY_SURROGATE),
        )
        with caplog.at_level("INFO", logger="surmoo"):
            result = run(config)
        lines = [r.getMessage() for r in caplog.records if "falls back" in r.getMessage()]
        assert [m.mode for m in result.history.epoch_metrics[1:]] == ["o", "o"]
        assert len(lines) == 2
        for epoch, line in enumerate(lines, start=1):
            assert re.fullmatch(
                f"epoch {epoch}: surrogate mode c falls back to o: [12] distinct "
                "constraint patterns among viable records, fewer than 3",
                line,
            )

    def test_unconstrained_fallback_is_silent(self, caplog):
        with caplog.at_level("INFO", logger="surmoo"):
            run(small_config(epochs=1, surrogate=SurrogateConfig(mode="c+o", **TINY_SURROGATE)))
        assert not any("falls back" in r.getMessage() for r in caplog.records)

    def test_mode_constant_within_epoch(self):
        config = small_config(
            problem="tnk",
            problem_params={},
            epochs=2,
            dynamic_sampling=True,
            population_size=8,
            surrogate=SurrogateConfig(mode="c+o", **TINY_SURROGATE),
        )
        result = run(config)
        for m in result.history.epoch_metrics[1:]:
            assert m.mode in ("o", "c+o", "none")


class TestFallback:
    def test_training_failure_falls_back_and_completes(self, caplog):
        # 4 initial samples cannot satisfy the 2K-record minimum for 3 folds
        config = small_config(initial_samples=4, population_size=4, epochs=2)
        with caplog.at_level("WARNING", logger="surmoo"):
            result = run(config)
        assert len(result.history) == 4 + 2 * 4
        assert result.history.epoch_metrics[1].mode == "none"
        assert any("falling back" in rec.message for rec in caplog.records)
        # once enough data accumulated, the surrogate trains again
        assert result.history.epoch_metrics[2].mode == "o"

    def test_each_failed_evaluation_is_logged(self, caplog, monkeypatch):
        def broken_problem(name, **params):
            def evaluate(x):
                raise RuntimeError("simulator diverged")

            return replace(get_problem(name, **params), evaluate=evaluate)

        monkeypatch.setattr(engine, "get_problem", broken_problem)
        config = small_config(
            initial_samples=2, population_size=4, epochs=1,
            surrogate=SurrogateConfig(enabled=False),
        )
        with caplog.at_level("WARNING", logger="surmoo"):
            result = run(config)
        assert len(result.history) == 2 + 4
        assert all(np.all(np.isnan(r.objectives)) for r in result.history.records)
        failures = [
            (r.levelname, r.getMessage()) for r in caplog.records if "failed:" in r.getMessage()
        ]
        assert failures == [
            ("WARNING", f"epoch {epoch}: evaluation of candidate {i} failed: "
                        "RuntimeError: simulator diverged")
            for epoch, n in ((0, 2), (1, 4))
            for i in range(n)
        ]

    def test_each_fit_logs_its_training_schedule(self, caplog, monkeypatch):
        fits = []

        def recording_train(x, y, c, space, cfg, stream, final_epochs=None):
            model, schedule = train_surrogate(x, y, c, space, cfg, stream, final_epochs)
            fits.append((len(x), cfg.mode, schedule))
            return model, schedule

        monkeypatch.setattr(engine, "train_surrogate", recording_train)
        config = small_config(
            epochs=1,
            dynamic_sampling=True,
            population_size=8,
            surrogate=SurrogateConfig(mode="o", blocks=1, block_dim=4, learning_rate=0.1),
        )
        with caplog.at_level("INFO", logger="surmoo"):
            run(config)
        lines = [r.getMessage() for r in caplog.records if "fitted on" in r.getMessage()]
        assert len(fits) == engine.DYNAMIC_SUB_BLOCKS
        assert len(lines) == len(fits)
        for sub, (line, (rows, mode, schedule)) in enumerate(zip(lines, fits)):
            assert line.startswith(f"epoch 1 sub-block {sub}: surrogate mode {mode} ")
            assert f"fitted on {rows} viable records" in line
            if sub == 0:
                assert len(schedule.fold_stop_epochs) == config.surrogate.folds
                assert len(schedule.fold_best_epochs) == config.surrogate.folds
                assert (
                    f"; fold stop epochs {schedule.fold_stop_epochs}, "
                    f"best epochs {schedule.fold_best_epochs}, final epochs"
                ) in line
            else:
                assert schedule.fold_stop_epochs == schedule.fold_best_epochs == []
                assert schedule.final_epochs == fits[0][2].final_epochs
                assert "; folds reused from sub-block 0, final epochs" in line
            assert line.endswith(f"final epochs {schedule.final_epochs}")

    def test_surrogate_disabled_runs_plain_loop(self):
        result = run(small_config(surrogate=SurrogateConfig(enabled=False), epochs=3))
        assert len(result.history) == 16 + 3 * 10
        for m in result.history.epoch_metrics[1:]:
            assert m.mode == "none"
            assert np.isnan(m.nrmse)


def spy_folds_per_fit(monkeypatch):
    """Spy on `surrogate._train_single`. The returned function gives, for
    the calls so far, the number of CV folds each fit ran, in fit order: a
    fold call has a validation split, and a fit's last call (the final
    model) has none."""
    calls = []
    single = surrogate._train_single

    def spy(*args, **kwargs):
        calls.append(kwargs.get("val") is not None)
        return single(*args, **kwargs)

    monkeypatch.setattr(surrogate, "_train_single", spy)

    def folds_per_fit():
        counts, folds = [], 0
        for validated in calls:
            if validated:
                folds += 1
            else:
                counts.append(folds)
                folds = 0
        return counts

    return folds_per_fit


class TestCrossValidationOncePerEpoch:
    SURROGATE = SurrogateConfig(mode="o", blocks=1, block_dim=4, learning_rate=0.1)

    def test_dynamic_epoch_cross_validates_in_sub_block_0_only(self, monkeypatch):
        folds_per_fit = spy_folds_per_fit(monkeypatch)
        run(small_config(dynamic_sampling=True, population_size=8, surrogate=self.SURROGATE))
        assert folds_per_fit() == [3, 0, 0, 0] * 2

    def test_failed_first_fit_moves_the_folds_to_the_next_sub_block(
        self, caplog, monkeypatch
    ):
        folds_per_fit = spy_folds_per_fit(monkeypatch)
        tries = []

        def fail_first(*args, **kwargs):
            tries.append(kwargs["final_epochs"])
            if len(tries) == 1:
                raise RuntimeError("diverged")
            return train_surrogate(*args, **kwargs)

        monkeypatch.setattr(engine, "train_surrogate", fail_first)
        config = small_config(
            epochs=1, dynamic_sampling=True, population_size=8, surrogate=self.SURROGATE
        )
        with caplog.at_level("INFO", logger="surmoo"):
            result = run(config)
        assert folds_per_fit() == [3, 0, 0]
        assert tries[:2] == [None, None] and tries[2] == tries[3] >= 1
        lines = [r.getMessage() for r in caplog.records if "fitted on" in r.getMessage()]
        assert [line.split(":")[0] for line in lines] == [
            f"epoch 1 sub-block {sub}" for sub in (1, 2, 3)
        ]
        assert "; fold stop epochs [" in lines[0] and "], best epochs [" in lines[0]
        assert all("; folds reused from sub-block 1, final epochs" in line for line in lines[1:])
        assert result.history.epoch_metrics[1].mode == "none"

    def test_every_epoch_without_dynamic_sampling_cross_validates(self, monkeypatch):
        folds_per_fit = spy_folds_per_fit(monkeypatch)
        run(small_config(epochs=3, surrogate=self.SURROGATE))
        assert folds_per_fit() == [3, 3, 3]


class TestSubBlockRecords:
    SURROGATE = SurrogateConfig(mode="o", blocks=1, block_dim=4, learning_rate=0.1)

    def _descent_config(self, **overrides):
        base = dict(
            problem="bnh",
            problem_params={},
            seed=5,
            population_size=16,
            initial_samples=12,
            generations=2,
            dynamic_sampling=True,
            surrogate=SurrogateConfig(mode="c+o", **TINY_SURROGATE),
            feasolve=FeasolveConfig(enabled=True, targets=("objective",), max_iters=25),
        )
        base.update(overrides)
        return RunConfig(**base)

    @pytest.mark.parametrize("dynamic, epochs", [(True, 2), (False, 3)])
    def test_one_block_per_sub_block_in_order(self, dynamic, epochs):
        config = small_config(
            dynamic_sampling=dynamic, population_size=8, epochs=epochs, surrogate=self.SURROGATE
        )
        result = run(config)
        subs = engine.DYNAMIC_SUB_BLOCKS if dynamic else 1
        assert [(b.epoch, b.sub) for b in result.blocks] == [
            (epoch, sub) for epoch in range(1, epochs + 1) for sub in range(subs)
        ]
        records = [rec for b in result.blocks for rec in b.records]
        logged = result.history.records[config.initial_samples:]
        assert len(records) == len(logged)
        assert all(rec is log for rec, log in zip(records, logged))
        assert all(len(b.records) == 8 // subs for b in result.blocks)

    def test_only_the_first_fit_of_a_dynamic_epoch_has_folds(self):
        config = small_config(dynamic_sampling=True, population_size=8, surrogate=self.SURROGATE)
        for b in run(config).blocks:
            folds = len(b.schedule.fold_stop_epochs), len(b.schedule.fold_best_epochs)
            assert folds == ((config.surrogate.folds,) * 2 if b.sub == 0 else (0, 0))

    def test_failed_fit_has_no_schedule_and_the_epoch_no_mode(self, monkeypatch):
        tries = []

        def fail_first(*args, **kwargs):
            tries.append(None)
            if len(tries) == 1:
                raise RuntimeError("diverged")
            return train_surrogate(*args, **kwargs)

        monkeypatch.setattr(engine, "train_surrogate", fail_first)
        config = small_config(
            epochs=1, dynamic_sampling=True, population_size=8, surrogate=self.SURROGATE
        )
        result = run(config)
        first, second, *rest = result.blocks
        assert first.schedule is None
        assert len(second.schedule.fold_stop_epochs) == config.surrogate.folds
        assert all(b.schedule.fold_stop_epochs == [] for b in rest)
        assert result.history.epoch_metrics[1].mode == "none"

    def test_epoch_descent_steps_are_the_sum_of_its_blocks(self):
        result = run(self._descent_config(epochs=2))
        for m in result.history.epoch_metrics[1:]:
            steps = [b.descent_steps for b in result.blocks if b.epoch == m.epoch]
            assert len(steps) == engine.DYNAMIC_SUB_BLOCKS
            assert m.feasolve_steps == sum(steps) > 0

    def test_no_usable_target_leaves_the_candidates_to_moea(self, caplog):
        # two_sphere has no constraints, so mode o has no constraint head
        config = small_config(
            feasolve=FeasolveConfig(enabled=True, targets=("constraint",)), export_traces=True
        )
        with caplog.at_level("WARNING", logger="surmoo"):
            result = run(config)
        assert sum("skipping descent" in r.getMessage() for r in caplog.records) == 2
        assert all(b.descent_steps == 0 and b.trace is None for b in result.blocks)
        assert {r.provenance.value for b in result.blocks for r in b.records} == {"moea"}

    def test_traces_kept_only_when_exported(self):
        kept = run(self._descent_config(epochs=1, export_traces=True)).blocks
        assert all(b.trace is not None and len(b.trace) == b.descent_steps for b in kept)
        assert all(b.trace is None for b in run(self._descent_config(epochs=1)).blocks)


class TestSelectParents:
    def _history(self, problem, count, extra=()):
        points = problem.space.lower + np.random.default_rng(3).random(
            (count, problem.space.dim)
        ) * problem.space.span
        points = np.vstack([points, *extra])
        history = RunHistory()
        for x in points:
            objs, cons = problem.evaluate(x)
            history.append(EvaluationRecord(x, objs, cons, 0, "init"))
        return history

    def _own_records(self, history, params):
        by_params = {tuple(r.params): r for r in history.records}
        return [by_params.get(tuple(row)) for row in params]

    def test_padding_ranks_after_every_record(self):
        problem = get_problem("bnh")
        # (0, 3) violates BNH's first constraint: padding must rank behind
        # infeasible records too
        history = self._history(problem, 3, extra=[[0.0, 3.0]])
        params, objs, feas = engine._select_parents(
            *history.viable_arrays(), 8, problem, RandomStream(1, "parents")
        )
        own = self._own_records(history, params)
        real = np.array([r is not None for r in own])
        assert params.shape == (8, 2) and real.sum() == 4
        assert not all(r.feasible for r in own if r is not None)
        assert np.all(np.isinf(objs[~real])) and not np.any(feas[~real])
        assert np.all(params >= problem.space.lower) and np.all(params <= problem.space.upper)
        ranked = rank_population(params, objs, feas)
        assert ranked.front_index[~real].min() > ranked.front_index[real].max()

    def test_no_viable_row_pads_every_parent(self):
        problem = get_problem("bnh")
        params, objs, feas = engine._select_parents(
            *RunHistory().viable_arrays(), 3, problem, RandomStream(1, "parents")
        )
        assert params.shape == (3, 2) and objs.shape == (3, 2)
        assert np.all(np.isinf(objs)) and not np.any(feas)

    def test_parents_carry_their_records_own_values(self):
        problem = get_problem("bnh")
        history = self._history(problem, 12)
        params, objs, feas = engine._select_parents(
            *history.viable_arrays(), 5, problem, RandomStream(1, "parents")
        )
        own = self._own_records(history, params)
        assert len(own) == 5 and all(r is not None for r in own)
        assert np.array_equal(objs, np.array([r.objectives for r in own]))
        assert np.array_equal(feas, np.array([r.feasible for r in own]))


class TestDynamicStop:
    # the rule reads the metric series only, so no surrogate is trained
    def _run(self, stop, epochs=10):
        config = small_config(
            epochs=epochs, stop=stop, surrogate=SurrogateConfig(enabled=False)
        )
        return [m.epoch for m in run(config).history.epoch_metrics]

    def test_feasible_count_stop(self):
        # two_sphere is unconstrained: every evaluation is feasible
        epochs = self._run(StopConfig(metric="feasible_count", window=1, threshold=20), 6)
        assert epochs == [0, 1]

    def test_evals_stop_needs_a_full_window(self):
        # 16 + 10 per epoch evaluations: 16, 26, 36, 46; the window of
        # three reaches 26 at epoch 3, not at epoch 2, which already has 36
        epochs = self._run(StopConfig(metric="evals", window=3, threshold=26))
        assert epochs == [0, 1, 2, 3]

    def test_unmet_rule_runs_every_epoch(self):
        assert self._run(StopConfig(metric="hv", window=1, threshold=2.0), 3) == [0, 1, 2, 3]


class TestSnapshotCoverage:
    """`_snapshot`'s ecov: the share of the front the previous front does
    not weakly dominate."""

    def _ecov(self, epochs):
        history, archive = RunHistory(), ParetoArchive()
        series = {name: [] for name in ("hv", "feasible_count", "nrmse", "ecov", "evals")}
        prev_front = None
        for epoch, rows in enumerate(epochs):
            for objectives, feasible in rows:
                rec = EvaluationRecord(
                    np.array([0.5]), np.array(objectives), np.array([int(feasible)]),
                    epoch, "init" if epoch == 0 else "moea",
                )
                history.append(rec)
                archive.insert(rec)
            engine._snapshot(
                history, archive, series, epoch, float("nan"), "-", 0,
                time.perf_counter(), prev_front,
            )
            prev_front = archive.objectives() if len(archive) else None
        return series["ecov"]

    def test_epoch_that_adds_nothing_reads_zero(self):
        ecov = self._ecov([
            [([0.0, 1.0], True), ([1.0, 0.0], True)],
            [([2.0, 2.0], True), ([1.0, 0.0], True)],  # dominated, and a repeat
        ])
        assert ecov == [1.0, 0.0]

    def test_share_of_new_members(self):
        ecov = self._ecov([
            [([0.0, 1.0], True), ([1.0, 0.0], True)],
            [([0.5, 0.5], True)],
        ])
        assert ecov == [1.0, pytest.approx(1 / 3)]

    def test_nan_until_a_front_exists(self):
        ecov = self._ecov([[([0.0, 1.0], False)], [([1.0, 0.0], True)]])
        assert np.isnan(ecov[0]) and ecov[1] == 1.0


class TestFeasolveIntegration:
    def _feasolve_config(self, **overrides):
        base = dict(
            problem="bnh",
            problem_params={},
            seed=5,
            epochs=2,
            population_size=8,
            initial_samples=12,
            generations=2,
            surrogate=SurrogateConfig(mode="c+o", **TINY_SURROGATE),
            feasolve=FeasolveConfig(
                enabled=True, targets=("objective", "constraint"), max_iters=25
            ),
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_feasolve_epochs_record_steps_and_provenance(self):
        result = run(self._feasolve_config())
        provenances = {r.provenance.value for r in result.history.records}
        assert "feasolve" in provenances
        assert any(m.feasolve_steps > 0 for m in result.history.epoch_metrics)

    def test_trace_records_appear_when_requested(self):
        feasolve = FeasolveConfig(
            enabled=True, targets=("objective", "constraint"), max_iters=25, trace_samples=2
        )
        result = run(self._feasolve_config(feasolve=feasolve, export_traces=True))
        provenances = [r.provenance.value for r in result.history.records]
        assert provenances.count("trace") == 2 * 2  # two epochs, two picks
        assert any(b.trace is not None for b in result.blocks)

    def test_elite_half_preserved_bitwise(self):
        # rerunning the same seed without feasolve must reproduce the elite
        # half untouched; histories diverge after the first epoch, so only
        # epoch 1 is comparable
        with_fs = run(self._feasolve_config(seed=21, epochs=1))
        without_fs = run(
            self._feasolve_config(seed=21, epochs=1, feasolve=FeasolveConfig(enabled=False))
        )
        fs_elite = [
            r for r in with_fs.history.records
            if r.epoch == 1 and r.provenance.value == "moea"
        ]
        plain_params = {
            tuple(r.params) for r in without_fs.history.records if r.epoch == 1
        }
        assert fs_elite  # the preserved half is present
        for rec in fs_elite:
            assert tuple(rec.params) in plain_params

    def test_constraint_only_surrogate_ranks_and_descends(self):
        # mode c predicts no objectives: ranking sees a single zero column.
        # SRN, not BNH: BNH's box holds only 2 constraint patterns, so the
        # engine would fall back to mode o there
        config = self._feasolve_config(
            problem="srn",
            surrogate=SurrogateConfig(mode="c", **TINY_SURROGATE),
            feasolve=FeasolveConfig(enabled=True, targets=("constraint",), max_iters=25),
        )
        result = run(config)
        assert len(result.history) == 12 + 2 * 8
        surrogate_epochs = [m for m in result.history.epoch_metrics[1:] if m.mode != "none"]
        assert surrogate_epochs
        assert all(m.mode == "c" for m in surrogate_epochs)
        assert any(m.feasolve_steps > 0 for m in surrogate_epochs)

    def test_sensitivity_snapshots_recorded(self):
        config = self._feasolve_config(sensitivity=SensitivityConfig(enabled=True))
        result = run(config)
        snapshots = [b for b in result.blocks if b.s_bar is not None]
        assert snapshots
        assert snapshots[0].s_bar.shape == (2,)
        assert np.all(snapshots[0].eta >= 1.0)
