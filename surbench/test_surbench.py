"""Tests of the benchmark's own helpers:

    python3 -m pytest surbench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import outcheck  # noqa: E402
import spans  # noqa: E402
from surmoo import engine, runio  # noqa: E402


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "counts": {}}


def test_self_time_subtracts_nested_children():
    recorded = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    assert spans.root_residual(recorded) == 0.0


def test_self_time_counts_overlapping_children_once():
    recorded = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 3.0, 6.0, 0)]
    assert spans.self_times(recorded)[0] == 5.0


def test_tracer_records_parents_counts_and_summary():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x * 2, lambda a, k, r: {"rows": r})
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 6
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    summary = spans.summarize(tracer.spans)
    assert summary["inner"] == {"self_s": 2.0, "calls": 2, "rows": 6}
    assert summary["outer"]["self_s"] == 3.0
    assert spans.root_residual(tracer.spans) == 0.0


def test_tracer_patch_and_restore():
    class Owner:
        @staticmethod
        def f():
            return 1

    table = {"g": lambda: 2}
    tracer = spans.Tracer()
    original = Owner.f
    tracer.patch(Owner, "f", "owner.f")
    tracer.patch(table, "g", "table.g")
    assert Owner.f() == 1 and table["g"]() == 2
    assert [s["name"] for s in tracer.spans] == ["owner.f", "table.g"]
    tracer.restore()
    assert Owner.f is original and table["g"]() == 2 and len(tracer.spans) == 2


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    cfg_path = base / "config.yaml"
    cfg_path.write_text(
        "problem: two_sphere\nproblem_params: {n: 1}\nepochs: 2\npopulation_size: 4\n"
        "initial_samples: 8\nworkers: 1\nsurrogate: {enabled: false}\n"
    )
    config = runio.load_config(cfg_path)
    run_dir = base / "out"
    runio.write_run_directory(engine.run(config), run_dir)
    return config, run_dir


def copy_run(run_dir, dest):
    dest.mkdir()
    for path in run_dir.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest


def test_output_check_accepts_a_finished_run(finished_run):
    config, run_dir = finished_run
    assert outcheck.check_run(run_dir, config) == []
    hv = runio.read_metrics(run_dir)[-1]["hv_norm"]
    assert outcheck.check_report(f"run,hv\n{run_dir},{hv!r}\n", hv) == []


def test_output_check_rejects_a_missing_record(finished_run, tmp_path):
    config, run_dir = finished_run
    broken = copy_run(run_dir, tmp_path / "broken")
    log = broken / runio.EVALUATIONS_FILE
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:-1]))
    problems = outcheck.check_run(broken, config)
    assert any(f"log has {len(lines) - 1} lines" in p for p in problems)


def test_output_check_rejects_hv_norm_above_bound(finished_run, tmp_path):
    config, run_dir = finished_run
    broken = copy_run(run_dir, tmp_path / "broken")
    path = broken / runio.METRICS_FILE
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = "1.25"  # above 1.1^2 for two objectives
    path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    problems = outcheck.check_run(broken, config)
    assert any("hv_norm 1.25 outside" in p for p in problems)
    assert any("differs from replay" in p for p in problems)


def test_report_check_rejects_a_different_hv():
    assert outcheck.check_report("run,hv\nd,0.5\n", 0.25)
    assert outcheck.check_report("error\n", 0.25)
