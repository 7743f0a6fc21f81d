"""Output check for one finished `surmoo run` and its `surmoo report`.

`check_run` re-derives what the run directory must contain from the config
alone and returns a list of problems; an empty list means the run passed.
`check_report` does the same for the CSV table `surmoo report --metric all
--format csv` printed for that directory.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from surmoo import engine, metrics, runio
from surmoo.problems import get_problem


def check_run(run_dir, config) -> list[str]:
    """Problems with a run directory written for ``config``.

    - the log has exactly initial_samples + epochs * population_size lines;
    - every params row lies inside the problem box;
    - every epoch's hv_norm lies in [0, 1.1^q];
    - the final hv_norm and feasible_count equal a replay of the log.

    The hv_norm bound is a real check, not a formality. Known defect: when an
    objective takes negative values while its nadir component stays
    positive, `metrics.shared_normalization` applies no shift. srn run with
    the tnk_joint settings at seed 1 reports hv_norm 5.55 after the initial
    design and 6.98 at the end, above 1.1^2. Such a run fails here; the bound
    stays as it is until that normalization is fixed.
    """
    run_dir = Path(run_dir)
    problem = get_problem(config.problem, **config.problem_params)
    problems: list[str] = []

    expected = config.initial_samples + config.epochs * config.population_size
    with open(run_dir / runio.EVALUATIONS_FILE) as fh:
        lines = sum(1 for _ in fh)
    if lines != expected:
        problems.append(f"log has {lines} lines, expected {expected}")

    records = runio.read_evaluations(run_dir)
    lower, upper = problem.space.lower, problem.space.upper
    outside = sum(
        1
        for r in records
        if r.params.shape != lower.shape or np.any(r.params < lower) or np.any(r.params > upper)
    )
    if outside:
        problems.append(f"{outside} params rows outside the problem box")

    rows = runio.read_metrics(run_dir)
    if not rows:
        return problems + ["metrics.csv has no rows"]
    top = metrics.REFERENCE_FACTOR ** problem.n_objectives
    for row in rows:
        if not 0.0 <= row["hv_norm"] <= top:
            problems.append(
                f"epoch {row['epoch']}: hv_norm {row['hv_norm']!r} outside [0, {top!r}]"
            )

    replay = engine.recompute_metrics(records)
    final = rows[-1]
    if not replay:
        problems.append("replay of the log gives no epochs")
    else:
        for key in ("hv_norm", "feasible_count"):
            if replay[-1][key] != final[key]:
                problems.append(
                    f"final {key} {final[key]!r} differs from replay {replay[-1][key]!r}"
                )
    return problems


def check_report(report_text: str, hv_norm: float) -> list[str]:
    """Problems with a report table: one row whose hv equals ``hv_norm``."""
    try:
        rows = list(csv.DictReader(io.StringIO(report_text)))
        hv = float(rows[0]["hv"])
    except (KeyError, IndexError, TypeError, ValueError):
        return ["report output has no hv column"]
    if len(rows) != 1:
        return [f"report has {len(rows)} rows, expected 1"]
    if not math.isclose(hv, hv_norm, rel_tol=1e-12, abs_tol=0.0):
        return [f"report hv {hv!r} differs from final hv_norm {hv_norm!r}"]
    return []
