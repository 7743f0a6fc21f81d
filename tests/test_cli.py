import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import surmoo

from surmoo import engine
from surmoo.cli import cmd_bench, cmd_report, cmd_run, main
from surmoo.core import EvaluationRecord, ParetoArchive, RunHistory
from surmoo.core import EpochMetrics
from surmoo.engine import RunConfig, RunResult, run
from surmoo.problems import get_problem
from surmoo.runio import (
    ConfigError,
    build_run_config,
    config_to_dict,
    load_config,
    read_evaluations,
    read_metrics,
    write_run_directory,
)

MINIMAL_CONFIG = """\
problem: two_sphere
problem_params: {n: 2}
seed: 3
epochs: 2
population_size: 8
initial_samples: 10
generations: 2
surrogate:
  mode: o
  blocks: 1
  block_dim: 10
  batch_size: 128
"""


def write_config(tmp_path, text=MINIMAL_CONFIG, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def synthetic_run_dir(tmp_path, name, objective_rows, epochs=2):
    """Write a run directory from hand-built records (report is a pure
    function of the logs, so no engine run is needed)."""
    history = RunHistory()
    for epoch in range(epochs + 1):
        for row in objective_rows:
            history.append(
                EvaluationRecord(
                    np.array([0.5, 0.5]),
                    np.asarray(row, dtype=float) + epochs - epoch,  # improves over epochs
                    np.empty(0, dtype=np.int8),
                    epoch,
                    "init" if epoch == 0 else "moea",
                )
            )
    for epoch in range(epochs + 1):
        history.snapshot(
            EpochMetrics(epoch, (epoch + 1) * len(objective_rows), 0.0, 0, float("nan"), "o", 0, 0.0)
        )
    config = RunConfig(problem="two_sphere", population_size=max(2, len(objective_rows)),
                       initial_samples=len(objective_rows), sampler="mc", epochs=epochs)
    result = RunResult(config, get_problem("two_sphere"), history, ParetoArchive())
    out = tmp_path / name
    write_run_directory(result, out)
    return str(out)


class TestConfigLoading:
    def test_minimal_config_parses(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.problem == "two_sphere"
        assert config.population_size == 8
        assert config.surrogate.mode == "o"

    def test_unknown_key_suggests_closest(self, tmp_path):
        text = MINIMAL_CONFIG + "generatons: 3\n"
        with pytest.raises(ConfigError, match="did you mean 'generations'"):
            load_config(write_config(tmp_path, text))

    def test_unknown_key_reports_line(self, tmp_path):
        text = MINIMAL_CONFIG + "generatons: 3\n"
        lines = text.splitlines()
        lineno = next(i + 1 for i, l in enumerate(lines) if l.startswith("generatons"))
        with pytest.raises(ConfigError, match=f"line {lineno}"):
            load_config(write_config(tmp_path, text))

    def test_nested_unknown_key(self, tmp_path):
        text = MINIMAL_CONFIG.replace("  mode: o", "  mode: o\n  blockdim: 4")
        with pytest.raises(ConfigError, match="surrogate.blockdim"):
            load_config(write_config(tmp_path, text))

    def test_missing_problem_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="must name a problem"):
            load_config(write_config(tmp_path, "epochs: 3\n"))

    def test_bad_stop_expression_rejected_at_load(self, tmp_path):
        text = MINIMAL_CONFIG + "stop: 'bogus > 1'\n"
        with pytest.raises(ConfigError, match="unknown name"):
            load_config(write_config(tmp_path, text))

    def test_feasolve_section_round_trips(self, tmp_path):
        text = MINIMAL_CONFIG + (
            "feasolve:\n  enabled: true\n  targets: [constraint]\n  trace_samples: 2\n"
        )
        config = load_config(write_config(tmp_path, text))
        assert config.feasolve.enabled
        assert config.feasolve.targets == ("constraint",)
        assert config.feasolve.trace_samples == 2

    def test_exponent_floats_load_as_floats(self, tmp_path):
        # YAML 1.1 reads 1e-3 (no dot) as a string; every section converts it
        text = MINIMAL_CONFIG.replace("epochs: 2", "epochs: 1") + (
            "  learning_rate: 1e-3\n  outlier_threshold: 1e+1\n"
            "feasolve:\n  learning_rate: 1e-3\n"
        )
        config = load_config(write_config(tmp_path, text))
        assert config.surrogate.learning_rate == 0.001
        assert config.surrogate.outlier_threshold == 10.0
        assert config.feasolve.learning_rate == 0.001
        assert run(config).history.epoch_metrics[1].mode == "o"

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("epochs: 2", "epochs: abc", "'epochs' at line 4 must be of type int, not 'abc'"),
            ("  blocks: 1", "  blocks: abc", "'surrogate.blocks' at line 10 must be of type int"),
            ("surrogate:\n", "sensitivity: [1]\nsurrogate:\n", "'sensitivity' at line 8 must be a mapping"),
            ("  mode: o", "  mode: o\n  dropout: 0.1", "'surrogate.dropout' at line 10 must be a list"),
            ("  mode: o", "  mode: o\n  enabled: flase", "'surrogate.enabled' at line 10 must be of type bool"),
        ],
    )
    def test_bad_value_names_its_dotted_key(self, tmp_path, old, new, match):
        text = MINIMAL_CONFIG.replace(old, new)
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("epochs: 2", "epochs: 2.5", "'epochs' at line 4 must be of type int, not 2.5"),
            ("population_size: 8", "population_size: 10.9",
             "'population_size' at line 5 must be of type int, not 10.9"),
            ("generations: 2", "generations: true",
             "'generations' at line 7 must be of type int, not True"),
            ("  blocks: 1", "  blocks: 1.5", "'surrogate.blocks' at line 10 must be of type int"),
            ("  mode: o", "  mode: o\n  learning_rate: yes",
             "'surrogate.learning_rate' at line 10 must be of type float, not True"),
        ],
    )
    def test_number_is_not_truncated_or_taken_from_a_boolean(self, tmp_path, old, new, match):
        text = MINIMAL_CONFIG.replace(old, new)
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "section, entry, match",
        [
            ("surrogate", "learning_rate: .nan", "'surrogate.learning_rate' at line 13"),
            ("surrogate", "hidden_multiplier: .nan", "'surrogate.hidden_multiplier' at line 13"),
            ("surrogate", "dropout: [.nan, 0.0]", "'surrogate.dropout' at line 13"),
            ("surrogate", "outlier_threshold: .nan", "'surrogate.outlier_threshold' at line 13"),
            ("surrogate", "outlier_threshold: nan", "'surrogate.outlier_threshold' at line 13"),
            ("feasolve", "learning_rate: .nan", "'feasolve.learning_rate' at line 14"),
            ("feasolve", "plateau_ratio: .nan", "'feasolve.plateau_ratio' at line 14"),
            ("feasolve", "reference_factor: .inf", "'feasolve.reference_factor' at line 14"),
        ],
    )
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, section, entry, match):
        # the dataclass range checks let NaN through: a NaN learning rate
        # ran to exit 0 with a NaN-weight surrogate
        if section == "surrogate":
            text = MINIMAL_CONFIG + f"  {entry}\n"
        else:
            text = MINIMAL_CONFIG + f"{section}:\n  {entry}\n"
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=match + " must be a finite number"):
            load_config(path)
        assert cmd_run(str(path), None, str(tmp_path / "out")) == 2
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["targets: [.nan]", "targets: [objective, inf]"])
    def test_non_finite_in_a_string_slot_keeps_its_own_error(self, tmp_path, entry):
        path = write_config(tmp_path, MINIMAL_CONFIG + f"feasolve:\n  {entry}\n")
        with pytest.raises(ConfigError, match="unknown descent targets"):
            load_config(path)

    def test_integral_float_loads_as_int(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL_CONFIG.replace("epochs: 2", "epochs: 2.0")))
        assert config.epochs == 2 and type(config.epochs) is int

    def test_section_check_names_its_section(self, tmp_path):
        text = MINIMAL_CONFIG + "feasolve:\n  trace_samples: -1\n"
        with pytest.raises(ConfigError, match="^feasolve: trace_samples must be non-negative"):
            load_config(write_config(tmp_path, text))


class TestCmdRun:
    def test_minimal_run_layout(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = cmd_run(str(write_config(tmp_path)), None, str(out))
        assert status == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["config.yaml", "evaluations.ndjson", "metrics.csv"]
        rows = read_metrics(out)
        assert len(rows) == 3  # epoch 0 included
        assert rows[0]["cumulative_evals"] == 10
        assert rows[-1]["cumulative_evals"] == 10 + 2 * 8

    def test_same_seed_identical_logs(self, tmp_path):
        config = write_config(tmp_path)
        cmd_run(str(config), None, str(tmp_path / "a"))
        cmd_run(str(config), None, str(tmp_path / "b"))
        log_a = (tmp_path / "a" / "evaluations.ndjson").read_bytes()
        log_b = (tmp_path / "b" / "evaluations.ndjson").read_bytes()
        assert log_a == log_b

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path)
        cmd_run(str(config), None, str(tmp_path / "a"))
        cmd_run(str(config), 99, str(tmp_path / "c"))
        log_a = (tmp_path / "a" / "evaluations.ndjson").read_bytes()
        log_c = (tmp_path / "c" / "evaluations.ndjson").read_bytes()
        assert log_a != log_c
        snapshot = yaml.safe_load((tmp_path / "c" / "config.yaml").read_text())
        assert snapshot["seed"] == 99

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = write_config(tmp_path, MINIMAL_CONFIG + "generatons: 3\n")
        status = cmd_run(str(bad), None, str(tmp_path / "out"))
        assert status == 2
        assert "did you mean" in capsys.readouterr().err

    def test_zero_workers_is_a_config_error(self, tmp_path, capsys):
        bad = write_config(tmp_path, MINIMAL_CONFIG + "workers: 0\n")
        status = cmd_run(str(bad), None, str(tmp_path / "out"))
        assert status == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_trace_samples_bounded_by_a_sub_blocks_explorers(self, tmp_path, capsys):
        # dynamic sampling evaluates 4 sub-blocks of 10 candidates; descent
        # refines the lower 5 of each, and only those can become trace points
        text = (
            "problem: srn\npopulation_size: 40\ndynamic_sampling: true\n"
            "feasolve: {{enabled: true, trace_samples: {}}}\n"
        )
        ok = load_config(write_config(tmp_path, text.format(5)))
        assert ok.feasolve.trace_samples == 5
        bad = write_config(tmp_path, text.format(6), name="bad.yaml")
        assert cmd_run(str(bad), None, str(tmp_path / "out")) == 2
        assert "explorer half of a sub-block (5)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_written_config_loads_back_to_the_run_config(self, tmp_path):
        path = write_config(tmp_path)
        assert cmd_run(str(path), 5, str(tmp_path / "out")) == 0
        ran = replace(load_config(path), seed=5)
        assert load_config(tmp_path / "out" / "config.yaml") == ran

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("initial_samples: 10", "initial_samples: 9",
             "sampler 'slhc' with initial_samples 9: SLHC needs an even sample count"),
            ("{n: 2}", "{bogus: 2}",
             "problem_params rejected by 'two_sphere': .*unexpected keyword argument 'bogus'"),
        ],
    )
    def test_unrunnable_config_is_a_config_error(self, tmp_path, capsys, old, new, match):
        bad = write_config(tmp_path, MINIMAL_CONFIG.replace(old, new))
        status = cmd_run(str(bad), None, str(tmp_path / "out"))
        assert status == 2
        assert re.search(match, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, entry, match",
        [
            ("surrogate", "dropout: [0.1]", "dropout must hold two probabilities"),
            ("surrogate", "dropout: [1.0, 0.0]", "dropout must hold two probabilities"),
            ("surrogate", "dropout: [0.1, 0.1, 0.1]", "dropout must hold two probabilities"),
            ("surrogate", "dropout: [-0.5, 0]", "dropout must hold two probabilities"),
            ("surrogate", "folds: 1", "need folds >= 2"),
            ("surrogate", "folds: 0", "need folds >= 2"),
            ("surrogate", "batch_size: 0", "need .*batch_size >= 1"),
            ("surrogate", "hidden_multiplier: 0.0", "need .*hidden_multiplier \\* block_dim >= 1"),
            ("surrogate", "learning_rate: 0.0", "learning_rate must be positive"),
            ("surrogate", "learning_rate: -0.01", "learning_rate must be positive"),
            ("feasolve", "learning_rate: -0.05", "learning_rate must be positive"),
        ],
    )
    def test_setting_that_cannot_fit_or_descend_is_a_config_error(
        self, tmp_path, capsys, section, entry, match
    ):
        # a run would exit 0 with any of these: every fit fails and falls back
        # to plain NSGA-II, or a non-positive step trains or descends backwards
        text = MINIMAL_CONFIG.replace("  batch_size: 128\n", "")
        text += f"  {entry}\n" if section == "surrogate" else f"{section}:\n  {entry}\n"
        bad = write_config(tmp_path, text)
        assert cmd_run(str(bad), None, str(tmp_path / "out")) == 2
        assert re.search(f"error: {section}: {match}", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_run_failure_logs_traceback_at_debug(self, tmp_path, capsys, caplog, monkeypatch):
        def diverge(config):
            raise FloatingPointError("simulator diverged")

        monkeypatch.setattr(engine, "run", diverge)
        with caplog.at_level("DEBUG", logger="surmoo"):
            status = cmd_run(str(write_config(tmp_path)), None, str(tmp_path / "out"))
        assert status == 1
        assert "error: run failed: simulator diverged" in capsys.readouterr().err
        failures = [r for r in caplog.records if r.getMessage() == "run failed"]
        assert len(failures) == 1
        assert failures[0].levelname == "DEBUG"
        assert failures[0].exc_info[0] is FloatingPointError
        assert not (tmp_path / "out").exists()


class TestLogs:
    def test_float_round_trip_bit_exact(self, tmp_path):
        values = np.array([0.1, 1e-17, np.pi, np.nextafter(1.0, 2.0)])
        history = RunHistory()
        history.append(
            EvaluationRecord(values, np.array([np.nan, 0.1 + 0.2]), np.array([1], dtype=np.int8), 0, "init")
        )
        history.snapshot(EpochMetrics(0, 1, 0.1, 0, float("nan"), "-", 0, 0.0))
        config = RunConfig(
            problem="two_sphere", population_size=2, initial_samples=1, sampler="mc", epochs=1
        )
        result = RunResult(config, get_problem("two_sphere"), history, ParetoArchive())
        out = write_run_directory(result, tmp_path / "run")
        back = read_evaluations(out)
        assert np.array_equal(back[0].params, values)
        assert np.isnan(back[0].objectives[0])
        assert back[0].objectives[1] == 0.1 + 0.2

    def test_truncated_last_line_detected(self, tmp_path):
        run_dir = synthetic_run_dir(tmp_path, "trunc", [[1.0, 2.0]])
        path = tmp_path / "trunc" / "evaluations.ndjson"
        with open(path, "a") as fh:
            fh.write('{"epoch": 3, "provenance": "moea", "par')
        with pytest.raises(ValueError, match="truncated or corrupt"):
            read_evaluations(run_dir)

    @pytest.mark.parametrize(
        "name, damaged_line",
        [
            ("evaluations.ndjson", '{"epoch": 3, "provenance": "moea", "objectives": [1.0]}'),
            ("evaluations.ndjson", "[1, 2]"),
            ("metrics.csv", "3,1"),
        ],
    )
    def test_damaged_line_is_reported_with_its_number(self, tmp_path, capsys, name, damaged_line):
        # a record without params, a line that is not an object and a short
        # metrics row, each reported by path and line rather than as a bare
        # KeyError or TypeError
        run_dir = synthetic_run_dir(tmp_path, "damaged", [[1.0, 2.0]])
        path = tmp_path / "damaged" / name
        lineno = len(path.read_text().splitlines()) + 1
        with open(path, "a") as fh:
            fh.write(damaged_line + "\n")
        reader = read_evaluations if name == "evaluations.ndjson" else read_metrics
        with pytest.raises(ValueError, match=f"{name}:{lineno}: "):
            reader(run_dir)
        assert cmd_report([run_dir]) == 2
        assert f"{name}:{lineno}: " in capsys.readouterr().err

    def test_records_are_one_json_object_per_line(self, tmp_path):
        run_dir = synthetic_run_dir(tmp_path, "lines", [[1.0, 2.0], [2.0, 1.0]])
        for line in (tmp_path / "lines" / "evaluations.ndjson").read_text().splitlines():
            payload = json.loads(line)
            assert set(payload) == {"epoch", "provenance", "params", "objectives", "constraints"}


class TestCmdReport:
    def test_single_run_hv_series(self, tmp_path, capsys):
        run_dir = synthetic_run_dir(tmp_path, "solo", [[1.0, 2.0], [2.0, 1.0]])
        assert cmd_report([run_dir], metric="hv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split()[0] == "epoch"
        assert len(lines) == 2 + 3  # header + rule + three epochs

    def test_dominating_run_has_nonpositive_epsilon(self, tmp_path, capsys):
        good = synthetic_run_dir(tmp_path, "good", [[0.0, 0.0]])
        bad = synthetic_run_dir(tmp_path, "bad", [[1.0, 1.0]])
        assert cmd_report([good, bad], metric="epsilon", reference=bad, fmt="csv") == 0
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0].split(",")
        eps_column = header.index("epsilon")
        good_row = next(row.split(",") for row in out[1:] if row.startswith(good))
        assert float(good_row[eps_column]) <= 0.0

    def test_report_is_pure_function_of_logs(self, tmp_path, capsys):
        run_dir = synthetic_run_dir(tmp_path, "pure", [[1.0, 2.0], [2.0, 1.0]])
        cmd_report([run_dir], metric="all", fmt="csv")
        first = capsys.readouterr().out
        cmd_report([run_dir], metric="all", fmt="csv")
        second = capsys.readouterr().out
        assert first == second

    def test_mismatched_objective_counts_rejected(self, tmp_path, capsys):
        two = synthetic_run_dir(tmp_path, "q2", [[1.0, 2.0]])
        three = synthetic_run_dir(tmp_path, "q3", [[1.0, 2.0, 3.0]])
        assert cmd_report([two, three]) == 2
        assert "mismatched" in capsys.readouterr().err

    def test_output_file_written(self, tmp_path, capsys):
        run_dir = synthetic_run_dir(tmp_path, "filed", [[1.0, 2.0]])
        target = tmp_path / "table.csv"
        cmd_report([run_dir], metric="all", output=str(target))
        capsys.readouterr()
        assert target.exists()
        assert target.read_text().startswith("run,")


class TestCmdBench:
    def test_list_includes_all_problems(self, capsys):
        assert cmd_bench("list") == 0
        out = capsys.readouterr().out
        for name in ("two_sphere", "thin_band", "bnh", "srn", "tnk"):
            assert name in out

    def test_describe_thin_band(self, capsys):
        assert cmd_bench("describe", "thin_band") == 0
        out = capsys.readouterr().out
        assert "constraints:     3" in out
        assert "0.000326" in out or "3.26e-04" in out

    def test_describe_unknown_fails(self, capsys):
        assert cmd_bench("describe", "nope") == 2
        assert "unknown problem" in capsys.readouterr().err


class TestMainEntry:
    def test_bench_list_via_main(self, capsys):
        assert main(["bench", "list"]) == 0
        assert "two_sphere" in capsys.readouterr().out

    def test_run_via_main(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def test_verbose_run_prints_the_fit_lines_to_stderr(self, tmp_path, capsys):
        config = str(write_config(tmp_path))
        assert main(["run", "-v", "--config", config, "--out", str(tmp_path / "v")]) == 0
        verbose = capsys.readouterr()
        fits = [line for line in verbose.err.splitlines() if "fitted on" in line]
        assert [line.split(":")[0] for line in fits] == [
            "epoch 1 sub-block 0", "epoch 2 sub-block 0"
        ]
        assert main(["run", "--config", config, "--out", str(tmp_path / "q")]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert quiet.out == verbose.out.replace(str(tmp_path / "v"), str(tmp_path / "q"))
        assert logging.getLogger("surmoo").handlers == []


SCIPY_PROBE = """\
import json, sys
from surmoo import cli
if len(sys.argv) > 1:
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

# joint surrogate with descent and sensitivity: every code path that takes a
# sigmoid (training, constraint predictions, BCE and descent gradients)
JOINT_CONFIG = """\
problem: tnk
seed: 3
epochs: 1
population_size: 8
initial_samples: 30
sampler: sobol
generations: 2
surrogate: {mode: c+o, blocks: 1, block_dim: 8, learning_rate: 0.02, dropout: [0.0, 0.0]}
feasolve: {enabled: true}
sensitivity: {enabled: true}
"""


def _scipy_modules_loaded(*argv) -> list[str]:
    src = str(Path(surmoo.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestStartup:
    # no command loads any scipy module: the sigmoid is numpy and Sobol
    # designs come from a built-in table (scipy.special cost 0.26 s and
    # about 20 MB per run, scipy.stats most of a second)
    def test_import_leaves_scipy_unloaded(self):
        assert _scipy_modules_loaded() == []

    def test_report_leaves_scipy_unloaded(self, tmp_path):
        run_dir = synthetic_run_dir(tmp_path, "lazy", [[1.0, 2.0], [2.0, 1.0]])
        assert _scipy_modules_loaded("report", run_dir, "--metric", "all") == []

    def test_sobol_run_leaves_scipy_stats_unloaded(self, tmp_path):
        config = write_config(tmp_path, MINIMAL_CONFIG + "sampler: sobol\n")
        out = tmp_path / "out"
        loaded = _scipy_modules_loaded("run", "--config", str(config), "--out", str(out))
        assert "scipy.stats" not in loaded
        assert load_config(out / "config.yaml").sampler == "sobol"
        assert len(read_evaluations(out)) == 10 + 2 * 8

    def test_joint_run_with_descent_and_sensitivity_leaves_scipy_unloaded(self, tmp_path):
        config = write_config(tmp_path, JOINT_CONFIG)
        out = tmp_path / "out"
        assert _scipy_modules_loaded("run", "--config", str(config), "--out", str(out)) == []
        final = read_metrics(out)[-1]
        assert final["mode"] == "c+o" and final["feasolve_steps"] > 0


class TestBuildRunConfig:
    def test_defaults_applied(self):
        config = build_run_config({"problem": "bnh"})
        assert config.epochs == 25
        assert config.population_size == 100
        assert config.sampler == "slhc"
        assert config.surrogate.mode == "c+o"
        assert config.surrogate.enabled
        assert not config.feasolve.enabled
        assert not config.sensitivity.enabled

    def test_snapshot_round_trips(self, tmp_path):
        config = build_run_config(
            {
                "problem": "thin_band",
                "problem_params": {"n": 6},
                "feasolve": {"enabled": True, "targets": ["constraint"], "trace_samples": 3},
                "sensitivity": {"enabled": True, "inverted": True},
            }
        )
        snapshot = config_to_dict(config)
        rebuilt = build_run_config(snapshot)
        assert rebuilt == config

        defaults = _leaves(config_to_dict(RunConfig("bnh")))
        every = _leaves(EVERY_KEY)
        assert every.keys() == defaults.keys()
        assert all(every[k] != defaults[k] for k in every)
        full = build_run_config(EVERY_KEY)
        assert config_to_dict(full) == EVERY_KEY
        path = tmp_path / "every.yaml"
        path.write_text(yaml.safe_dump(config_to_dict(full), sort_keys=False))
        assert load_config(path) == full


# a value for every settable key, none of them the default
EVERY_KEY = {
    "problem": "thin_band",
    "problem_params": {"n": 6},
    "seed": 7,
    "epochs": 3,
    "stop": "iteration > 2",
    "population_size": 24,  # 4 sub-blocks of 6: 3 explorers each, as trace_samples
    "generations": 4,
    "initial_samples": 20,
    "sampler": "sobol",
    "workers": 2,
    "dynamic_sampling": True,
    "export_traces": True,
    "save_surrogates": True,
    "surrogate": {
        "enabled": False,
        "mode": "c",
        "blocks": 3,
        "block_dim": 16,
        "hidden_multiplier": 1.5,
        "dropout": [0.1, 0.05],
        "learning_rate": 0.0005,
        "batch_size": 64,
        "folds": 4,
        "activation": "relu",
        "objective_loss": "huber",
        "outlier_threshold": 3.0,
        "exclude_infeasible": True,
    },
    "feasolve": {
        "enabled": True,
        "targets": ["constraint", "distance"],
        "max_iters": 50,
        "learning_rate": 0.01,
        "plateau_window": 10,
        "plateau_ratio": 0.05,
        "reference_factor": 1.2,
        "focal_gamma": 1.5,
        "focal_alpha": 0.5,
        "trace_samples": 3,
    },
    "sensitivity": {"enabled": True, "inverted": True},
}


def _leaves(tree: dict, prefix: str = "") -> dict:
    """Dotted key path -> value; ``problem_params`` counts as one value."""
    out = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and key != "problem_params":
            out.update(_leaves(value, path + "."))
        else:
            out[path] = value
    return out
