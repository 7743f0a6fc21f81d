"""Command-line front end: run an optimization from a config file, compare
finished runs post hoc, and inspect the built-in benchmark problems.

Commands
--------
run     execute a configured optimization and write a run directory
report  cross-run metric tables recomputed from the evaluation logs
bench   list or describe registered benchmark problems
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

# report reads logs only; run and bench import the optimizer and problems
from . import core, metrics, runio

__all__ = ["main", "cmd_run", "cmd_report", "cmd_bench"]

REPORT_METRICS = ("hv", "hv_auc", "igd", "epsilon", "coverage", "all")  # "all" reports the rest

logger = logging.getLogger("surmoo")


def cmd_run(config_path: str, seed: int | None, out_dir: str) -> int:
    try:
        config = runio.load_config(config_path)
    except (runio.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # refuse an --out that cannot become a directory now, not after the run
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        print(f"error: --out {out_dir}: {existing} is not a directory", file=sys.stderr)
        return 2
    if seed is not None:
        config.seed = seed
    from . import engine  # only a valid config loads the optimizer
    try:
        result = engine.run(config)
    except Exception as exc:
        logger.debug("run failed", exc_info=True)
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    try:
        out = runio.write_run_directory(result, out_dir)
    except OSError as exc:
        print(f"error: could not write run directory {out_dir}: {exc}", file=sys.stderr)
        return 2
    final = result.history.epoch_metrics[-1]
    print(
        f"run complete: {len(result.history)} evaluations over "
        f"{final.epoch + 1} metric epochs, final normalized HV "
        f"{final.hv_norm:.6g}, results in {out}"
    )
    return 0


def cmd_report(
    run_dirs: list[str],
    metric: str = "all",
    reference: str | None = None,
    fmt: str = "table",
    output: str | None = None,
) -> int:
    if metric not in REPORT_METRICS:
        print(
            f"error: unknown metric {metric!r}; valid: {list(REPORT_METRICS)}",
            file=sys.stderr,
        )
        return 2
    runs = {}
    try:
        for d in run_dirs:
            runs[d] = runio.read_evaluations(d)
            runio.read_metrics(d)  # validates metrics.csv; the report replays the log only
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # cumulative archive front after each epoch, replayed from each log
    all_fronts = {
        d: [
            archive.objectives() if len(archive) else np.empty((0, 0))
            for _, _, archive in core.replay(records)
        ]
        for d, records in runs.items()
    }
    final_fronts = {d: fronts[-1] for d, fronts in all_fronts.items() if fronts}
    dims = {front.shape[1] for front in final_fronts.values() if front.size}
    if len(dims) > 1:
        print(
            f"error: runs have mismatched objective counts: {sorted(dims)}",
            file=sys.stderr,
        )
        return 2

    feasible_points = [f for f in final_fronts.values() if f.size]
    if not feasible_points:
        print("error: no feasible solutions in any run", file=sys.stderr)
        return 1
    # shared nadir across every feasible evaluation of every supplied run
    feasible_by_run = [
        np.array([r.objectives for r in records if r.viable and r.feasible])
        for records in runs.values()
    ]
    context = metrics.shared_normalization([f for f in feasible_by_run if f.size])

    if reference is None or reference == "union":
        merged = np.vstack(feasible_points)
        ref_front = merged[core.nondominated_mask(merged)]
    else:
        if reference not in final_fronts or not final_fronts[reference].size:
            print(
                f"error: reference {reference!r} is not a supplied run with a "
                "feasible front",
                file=sys.stderr,
            )
            return 2
        ref_front = final_fronts[reference]

    # normalized hypervolume of each run's front after each epoch
    hv_series = {
        d: [metrics.normalized_hypervolume(f, context) if f.size else 0.0 for f in fronts]
        for d, fronts in all_fronts.items()
    }
    rows: list[list[str]] = []
    if metric == "hv":
        header = ["epoch"] + list(run_dirs)
        for epoch in range(max(len(series) for series in hv_series.values())):
            rows.append([str(epoch)] + [
                repr(hv_series[d][epoch]) if epoch < len(hv_series[d]) else "nan"
                for d in run_dirs
            ])
    else:
        wanted = list(REPORT_METRICS[:-1]) if metric == "all" else [metric]
        header = ["run"] + wanted
        for d in run_dirs:
            final = final_fronts.get(d, np.empty((0, 0)))
            series = hv_series[d]
            values: dict[str, float] = {
                "hv": series[-1] if series else float("nan"),
                "hv_auc": metrics.hv_auc(series) if len(series) >= 2 else float("nan"),
            }
            if final.size:
                values["igd"] = metrics.igd(final, ref_front)
                values["epsilon"] = metrics.epsilon_additive(final, ref_front)
                values["coverage"] = metrics.set_coverage(final, ref_front)
            else:
                values["igd"] = values["epsilon"] = values["coverage"] = float("nan")
            rows.append([d] + [repr(float(values[k])) for k in wanted])

    _emit_table(header, rows, fmt)
    if output:
        try:
            Path(output).write_text(_csv(header, rows))
        except OSError as exc:
            print(f"error: could not write --output: {exc}", file=sys.stderr)
            return 2
    return 0


def _csv(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


def _emit_table(header, rows, fmt: str) -> None:
    if fmt == "csv":
        print(_csv(header, rows), end="")
    else:
        widths = [
            max(len(str(header[i])), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
        print(line)
        print("-" * len(line))
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def cmd_bench(action: str, name: str | None = None) -> int:
    from .problems import PROBLEM_REGISTRY, get_problem
    if action == "list":
        print(f"{'name':12s} {'n':>4s} {'q':>3s} {'k':>3s} {'feasible_rate':>14s}")
        for key in sorted(PROBLEM_REGISTRY):
            problem = get_problem(key)
            rate = (
                f"{problem.feasibility_rate:.4g}"
                if problem.feasibility_rate is not None
                else "-"
            )
            print(
                f"{key:12s} {problem.space.dim:4d} {problem.n_objectives:3d} "
                f"{problem.n_constraints:3d} {rate:>14s}"
            )
        return 0
    if action == "describe":
        try:
            problem = get_problem(name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"name:            {problem.name}")
        print(f"description:     {problem.description}")
        print(f"dimensions:      {problem.space.dim}")
        print(f"objectives:      {problem.n_objectives}")
        print(f"constraints:     {problem.n_constraints}")
        rate = problem.feasibility_rate
        print(f"feasible rate:   {rate if rate is not None else 'unknown'} (uniform sampling)")
        for j, pname in enumerate(problem.space.names):
            print(
                f"  {pname}: [{problem.space.lower[j]:g}, {problem.space.upper[j]:g}]"
            )
        return 0
    print(f"error: unknown bench action {action!r}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="surmoo",
        description="surrogate-assisted constrained multi-objective optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured optimization")
    p_run.add_argument("--config", required=True, help="YAML run configuration")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", required=True, help="run directory to create")
    p_run.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the engine's INFO lines (fit schedules, mode fallbacks) to stderr",
    )

    p_report = sub.add_parser("report", help="compare finished runs")
    p_report.add_argument("run_dirs", nargs="+", help="run directories")
    p_report.add_argument("--metric", default="all", choices=REPORT_METRICS)
    p_report.add_argument(
        "--reference",
        default=None,
        help="run directory whose final front is the reference (default: union)",
    )
    p_report.add_argument("--format", dest="fmt", default="table", choices=("table", "csv"))
    p_report.add_argument("--output", default=None, help="also write the table as CSV")

    p_bench = sub.add_parser("bench", help="inspect benchmark problems")
    bench_sub = p_bench.add_subparsers(dest="action", required=True)
    bench_sub.add_parser("list", help="list registered problems")
    p_describe = bench_sub.add_parser("describe", help="describe one problem")
    p_describe.add_argument("name")

    args = parser.parse_args(argv)
    if args.command == "run":
        if not args.verbose:
            return cmd_run(args.config, args.seed, args.out)
        handler = logging.StreamHandler()  # stderr
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            return cmd_run(args.config, args.seed, args.out)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
    if args.command == "report":
        return cmd_report(args.run_dirs, args.metric, args.reference, args.fmt, args.output)
    if args.command == "bench":
        return cmd_bench(args.action, getattr(args, "name", None))
    return 2


if __name__ == "__main__":
    sys.exit(main())
