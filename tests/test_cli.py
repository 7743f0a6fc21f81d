import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import surmoo

from surmoo.cli import cmd_bench, cmd_report, cmd_run, main
from surmoo.core import EvaluationRecord, ParetoArchive, RunHistory
from surmoo.core import EpochMetrics
from surmoo.engine import RunConfig, RunResult
from surmoo.problems import get_problem
from surmoo.runio import (
    ConfigError,
    build_run_config,
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
                       initial_samples=len(objective_rows), epochs=epochs)
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
        text = MINIMAL_CONFIG + "optimiser: nsga2\n"
        with pytest.raises(ConfigError, match="did you mean 'optimizer'"):
            load_config(write_config(tmp_path, text))

    def test_unknown_key_reports_line(self, tmp_path):
        text = MINIMAL_CONFIG + "optimiser: nsga2\n"
        lines = text.splitlines()
        lineno = next(i + 1 for i, l in enumerate(lines) if l.startswith("optimiser"))
        with pytest.raises(ConfigError, match=f"line {lineno}"):
            load_config(write_config(tmp_path, text))

    def test_nested_unknown_key(self, tmp_path):
        text = MINIMAL_CONFIG.replace("  mode: o", "  mode: o\n  blockdim: 4")
        with pytest.raises(ConfigError, match="surrogate.blockdim"):
            load_config(write_config(tmp_path, text))

    def test_missing_problem_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="must name a problem"):
            load_config(write_config(tmp_path, "epochs: 3\n"))

    def test_optimizer_params_accepts_resampling_fraction(self, tmp_path):
        text = MINIMAL_CONFIG + "optimizer_params: {resampling_fraction: 0.1}\n"
        config = load_config(write_config(tmp_path, text))
        assert config.optimizer_params == {"resampling_fraction": 0.1}

    def test_bad_stop_expression_rejected_at_load(self, tmp_path):
        text = MINIMAL_CONFIG + "stop: 'bogus > 1'\n"
        with pytest.raises(ConfigError, match="unknown name"):
            load_config(write_config(tmp_path, text))

    def test_feasolve_section_round_trips(self, tmp_path):
        text = MINIMAL_CONFIG + (
            "feasolve:\n  enabled: true\n  targets: [constraint]\n  trace_samples: 2\n"
        )
        config = load_config(write_config(tmp_path, text))
        assert config.feasolve_enabled
        assert config.feasolve.targets == ("constraint",)
        assert config.trace_samples == 2


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
        bad = write_config(tmp_path, MINIMAL_CONFIG + "optimiser: x\n")
        status = cmd_run(str(bad), None, str(tmp_path / "out"))
        assert status == 2
        assert "did you mean" in capsys.readouterr().err


class TestLogs:
    def test_float_round_trip_bit_exact(self, tmp_path):
        values = np.array([0.1, 1e-17, np.pi, np.nextafter(1.0, 2.0)])
        history = RunHistory()
        history.append(
            EvaluationRecord(values, np.array([np.nan, 0.1 + 0.2]), np.array([1], dtype=np.int8), 0, "init")
        )
        history.snapshot(EpochMetrics(0, 1, 0.1, 0, float("nan"), "-", 0, 0.0))
        config = RunConfig(problem="two_sphere", population_size=2, initial_samples=1, epochs=1)
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


SCIPY_PROBE = """\
import json, sys
from surmoo import cli
if len(sys.argv) > 1:
    cli.main(["report", sys.argv[1], "--metric", "all"])
print(json.dumps([m for m in ("scipy.stats", "scipy.special") if m in sys.modules]))
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
    # scipy.stats and scipy.special take over a second to import; only Sobol
    # sampling and the sigmoid need them, so they load on first use
    def test_import_leaves_scipy_unloaded(self):
        assert _scipy_modules_loaded() == []

    def test_report_leaves_scipy_unloaded(self, tmp_path):
        run_dir = synthetic_run_dir(tmp_path, "lazy", [[1.0, 2.0], [2.0, 1.0]])
        assert _scipy_modules_loaded(run_dir) == []


class TestBuildRunConfig:
    def test_defaults_applied(self):
        config = build_run_config({"problem": "bnh"})
        assert config.epochs == 25
        assert config.population_size == 100
        assert config.sampler == "slhc"
        assert config.surrogate.mode == "c+o"
        assert not config.feasolve_enabled

    def test_snapshot_round_trips(self, tmp_path):
        from surmoo.runio import config_to_dict

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
