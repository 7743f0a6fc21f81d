"""End-to-end benchmark of `surmoo run` and `surmoo report`.

    python3 surbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. A
workload is a config in `surbench/workloads/` run at WORKLOADS[name].runs
optimizer seeds derived from --seed, so where a run's work depends on its
seed one benchmark seed averages over several optimizer runs.

--trace 0 times the program as a user meets it, from outside the process:
  setup_s      median of SETUP_REPEATS fresh processes that import surmoo
               and pass the workload config through runio.load_config, one
               in each of the first rounds, after one untimed warm-up;
  run_s        `surmoo run` wall time, run_directory writing included;
  report_s     `surmoo report --metric all` wall time on that directory,
               WORKLOADS[name].reports times per run;
  peak_rss_mb  peak resident memory of the `surmoo run` process;
  hv_norm, feasible_count   final-epoch values from metrics.csv.
  Rounds go through the optimizer seeds in turn; every seed runs once, then
  rounds repeat while the next one still ends within --seconds, warm-up
  included. run_s, report_s and peak_rss_mb are medians over all samples
  of the run; the quality numbers are means over the seeds. On a shared
  2-core host whose speed drifts by up to 1.7x over minutes, the median
  spread less over ten benchmark seeds than the fastest sample did
  (front_growth run_s 12-16% against 18-27%, in two sets of ten).

--trace 1 runs the first optimizer seed once untraced and once under
`spans.py`, which records a span per call of the wrapped functions, and
times the seeded kernels in `kernels.py`. It reports per-layer self seconds
and work counts, and the tracing overhead.

Every run is checked (`outcheck.py`), and every repeat of an optimizer seed
must write a byte-identical evaluations log; digests are also kept in
`.surbench/hashes.json` per source tree, workload config and seed, so later
benchmark runs of the same code are held to them. The last stdout line is
the JSON result; the line before it holds machine info and raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".surbench"

@dataclass(frozen=True)
class Workload:
    runs: int  # optimizer seeds per benchmark seed
    reports: int  # `surmoo report` calls per run directory


# front_growth does the same work whatever the seed, so one optimizer seed
# repeats for about six rounds (run and report, ~6-8 s). A tnk_dynamic run
# takes 12-14 s and its work follows the seed through the early-stopped fits,
# so three seeds run once each and the median falls on the middle one; its
# report, ~1.8 s and nearly all interpreter start-up, runs twice per run.
WORKLOADS = {"front_growth": Workload(runs=1, reports=1), "tnk_dynamic": Workload(runs=3, reports=2)}
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 120
# OpenBLAS starts one thread per core by default, which made run times on a
# 2-core machine spread more. One thread per process, so never more threads
# than nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = "import sys, surmoo; from surmoo import runio; runio.load_config(sys.argv[1])"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "hv_norm": "ratio",
    "feasible_count": "count",
}


def optimizer_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Proc:
    seconds: float
    code: int
    rss_mb: float
    output: str


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config_path = HERE / "workloads" / f"{workload}.yaml"
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spawned = 0

    def spawn(self, args: list[str]) -> Proc:
        """Run one child process to completion; time it from outside."""
        self.spawned += 1
        log_path = self.work / f"proc-{self.spawned}.log"
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(seconds, proc.returncode, usage.ru_maxrss / 1024.0, log_path.read_text())

    def operation(self, label: str, proc: Proc, problems: list[str]) -> bool:
        """Count one `run` or `report` call; a non-zero exit or a failed
        check makes it a failure."""
        self.attempted += 1
        if proc.code != 0:
            tail = proc.output.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {proc.code}: {tail[0]}"] + problems
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            return False
        return True


class OptimizerRun:
    """One optimizer seed of the workload and the samples taken on it."""

    def __init__(self, seed: int):
        self.seed = seed
        self.digest: str | None = None
        self.final: dict | None = None
        self.run_s: list[float] = []
        self.report_s: list[float] = []
        self.rss_mb: list[float] = []
        self.repeats = 0


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest(config_path: Path) -> str:
    """Digest of the program sources and the workload config."""
    h = hashlib.sha256(config_path.read_bytes())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class HashStore:
    """evaluations.ndjson digests of earlier benchmark runs, per source
    tree and workload config, workload and optimizer seed."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        try:
            self.data = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            self.data = {}

    def check(self, workload: str, seed: int, digest: str) -> list[str]:
        key = f"{self.prefix}/{workload}/{seed}"
        known = self.data.setdefault(key, digest)
        if known != digest:
            return [f"log digest {digest[:12]} differs from earlier runs ({known[:12]})"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def surmoo_cli(traced: Path | None, command: str) -> list[str]:
    """Interpreter arguments that run one surmoo command, under `spans.py`
    when ``traced`` names a directory for the spans."""
    if traced is None:
        return ["-m", "surmoo.cli", command]
    return [str(HERE / "spans.py"), str(traced / f"{command}.json"), command]


def run_once(bench: Bench, config, run: OptimizerRun, store: HashStore, traced: Path | None = None):
    """`surmoo run` then `surmoo report` on one optimizer seed, both checked.
    Returns the run process and the first report process, or None for a run
    that failed."""
    import outcheck
    from surmoo import runio

    out = bench.work / f"run-{run.seed}-{run.repeats}"
    run.repeats += 1
    proc = bench.spawn(
        surmoo_cli(traced, "run")
        + ["--config", str(bench.config_path), "--seed", str(run.seed), "--out", str(out)]
    )
    label = f"{'traced ' if traced else ''}run seed {run.seed}"
    problems: list[str] = []
    if proc.code == 0:
        digest = file_digest(out / "evaluations.ndjson")
        final = runio.read_metrics(out)[-1]
        if run.digest is None:
            problems = outcheck.check_run(out, config)
            problems += store.check(bench.workload, run.seed, digest)
            run.digest, run.final = digest, final
        elif digest != run.digest:
            problems = [f"log digest {digest[:12]} differs from the first repeat"]
        elif (final["hv_norm"], final["feasible_count"]) != (
            run.final["hv_norm"], run.final["feasible_count"]
        ):
            problems = ["final metrics differ from the first repeat"]
    if not bench.operation(label, proc, problems):
        return None

    reports = []
    for _ in range(1 if traced else WORKLOADS[bench.workload].reports):
        report = bench.spawn(
            surmoo_cli(traced, "report") + [str(out), "--metric", "all", "--format", "csv"]
        )
        if bench.operation(
            f"report seed {run.seed}", report,
            outcheck.check_report(report.output, run.final["hv_norm"]) if report.code == 0 else [],
        ):
            reports.append(report)
    shutil.rmtree(out, ignore_errors=True)
    if not reports:
        return None
    if not traced:
        run.run_s.append(proc.seconds)
        run.rss_mb.append(proc.rss_mb)
        run.report_s.extend(r.seconds for r in reports)
    return proc, reports[0]


def distribution(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None, "tail": None}
    if n > 10:
        k = n - 10
        out["tail"] = {"percentile": round(100.0 * k / n, 2), "value": ordered[k - 1]}
    return out


def setup_sample(bench: Bench) -> float | None:
    proc = bench.spawn(["-c", SETUP_CODE, str(bench.config_path)])
    if proc.code != 0:
        bench.problems.append(f"setup: exit code {proc.code}: {proc.output.strip()[-200:]}")
        return None
    return proc.seconds


def measure_end_to_end(bench: Bench, config, seconds: float, store: HashStore):
    """Run/report rounds over the workload's optimizer seeds until
    --seconds, warm-up included, is used up; the first SETUP_REPEATS rounds
    each start with a set-up sample."""
    start = time.perf_counter()
    setup_sample(bench)  # warm-up: compiles the sources, fills the file cache
    setup: list[float] = []
    runs = [OptimizerRun(optimizer_seed(bench.seed, i)) for i in range(WORKLOADS[bench.workload].runs)]
    done = 0
    round_s = 0.0
    while True:
        run = runs[done % len(runs)]
        elapsed = time.perf_counter() - start
        if done >= len(runs) and elapsed + round_s > seconds:
            break
        if done < SETUP_REPEATS:
            sample = setup_sample(bench)
            if sample is not None:
                setup.append(sample)
        round_start = time.perf_counter()
        run_once(bench, config, run, store)
        round_s = time.perf_counter() - round_start
        done += 1
    while done < SETUP_REPEATS:  # fewer rounds than set-up samples
        sample = setup_sample(bench)
        if sample is not None:
            setup.append(sample)
        done += 1

    finals = [r.final for r in runs if r.final]
    run_s = [s for r in runs for s in r.run_s]
    report_s = [s for r in runs for s in r.report_s]
    rss_mb = [s for r in runs for s in r.rss_mb]
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "run_s": statistics.median(run_s) if run_s else 0.0,
        "report_s": statistics.median(report_s) if report_s else 0.0,
        "peak_rss_mb": statistics.median(rss_mb) if rss_mb else 0.0,
        "hv_norm": statistics.fmean(f["hv_norm"] for f in finals) if finals else 0.0,
        "feasible_count": statistics.fmean(f["feasible_count"] for f in finals) if finals else 0.0,
    }
    details = {
        "setup_s": distribution(setup),
        "run_s": distribution(run_s),
        "report_s": distribution(report_s),
        "runs": [
            {
                "seed": r.seed, "digest": r.digest,
                "hv_norm": r.final and r.final["hv_norm"],
                "feasible_count": r.final and r.final["feasible_count"],
                "run_s": r.run_s, "report_s": r.report_s, "peak_rss_mb": r.rss_mb,
            }
            for r in runs
        ],
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details


# (span name, stats): "s" and "self_s" are summed self seconds, "ms_per_*"
# divide them by a summed count, the rest are summed counts.
LAYER_STATS = [
    ("metrics.normalized_hypervolume", ("s", "calls", "points")),
    ("core.ParetoArchive.insert", ("s", "calls")),
    ("surrogate.train", ("s", "calls", "epochs", "ms_per_epoch")),
    ("surrogate.predict", ("s", "rows")),
    ("moea.generate", ("s",)),
    ("moea.rank_population", ("s",)),
    ("feasolve.make_feasible", ("s", "steps", "ms_per_step", "early_stops")),
    ("sensitivity.compute_elasticities", ("s",)),
    ("evaluator.evaluate_batch", ("s", "evals", "errors")),
    ("sampling.sample", ("s",)),
    ("runio.write_run_directory", ("s",)),
    ("runio.read_evaluations", ("s",)),
    ("runio.load_config", ("s",)),
    ("engine.run", ("self_s",)),
    ("cli.cmd_run", ("self_s",)),
    ("cli.cmd_report", ("self_s",)),
]
PER_STEP = {"ms_per_epoch": "epochs", "ms_per_step": "steps"}


def layer_metrics(summary: dict) -> dict:
    out = {}
    for name, stats in LAYER_STATS:
        entry = summary.get(name, {})
        for stat in stats:
            if stat in ("s", "self_s"):
                value, unit = entry.get("self_s", 0.0), "s"
            elif stat in PER_STEP:
                steps = entry.get(PER_STEP[stat], 0)
                value, unit = (1e3 * entry["self_s"] / steps if steps else 0.0), "ms"
            else:
                value, unit = entry.get(stat, 0), "count"
            out[f"{name}.{stat}"] = (value, unit)
    return out


def measure_layers(bench: Bench, config, store: HashStore):
    import kernels
    import spans

    run = OptimizerRun(optimizer_seed(bench.seed, 0))
    plain = run_once(bench, config, run, store)
    traced_dir = bench.work / "spans"
    traced_dir.mkdir()
    traced = run_once(bench, config, run, store, traced=traced_dir)

    summary: dict = {}
    details: dict = {"seed": run.seed, "digest": run.digest}
    timings = {"trace.run_s": 0.0, "trace.report_s": 0.0, "trace.overhead_s": 0.0}
    if plain and traced:
        for part in ("run", "report"):
            recorded = json.loads((traced_dir / f"{part}.json").read_text())["spans"]
            residual = spans.root_residual(recorded)
            details[f"{part}_residual_s"] = residual
            details[f"{part}_root_s"] = sum(
                s["end"] - s["start"] for s in recorded if s["parent"] is None
            )
            if abs(residual) > 1e-6:
                bench.problems.append(f"traced {part}: self times miss the root by {residual!r} s")
            for name, entry in spans.summarize(recorded).items():
                merged = summary.setdefault(name, {})
                for key, value in entry.items():
                    merged[key] = merged.get(key, 0) + value
        timings = {
            "trace.run_s": traced[0].seconds,
            "trace.report_s": traced[1].seconds,
            # one traced and one untraced run: the difference carries their noise
            "trace.overhead_s": traced[0].seconds - plain[0].seconds,
        }
        details["untraced_run_s"] = plain[0].seconds
        details["untraced_report_s"] = plain[1].seconds

    metrics = layer_metrics(summary)
    metrics.update((name, (value, "s")) for name, value in timings.items())
    for name, value in kernels.run_kernels(bench.seed).items():
        metrics[name] = (value, "ms" if name.endswith(".ms") else "s")
    return metrics, details


def machine_info(env: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: env.get(k) for k in sorted(THREAD_ENV)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "surmoo" / "__init__.py").is_file():
        print(f"error: no surmoo sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads, for the kernels
    sys.path.insert(0, str(SRC))
    from surmoo import runio

    config = runio.load_config(HERE / "workloads" / f"{args.workload}.yaml")
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    bench = Bench(args.workload, args.seed, work)
    store = HashStore(WORK / "hashes.json", source_digest(bench.config_path))
    try:
        if args.trace:
            metrics, details = measure_layers(bench, config, store)
        else:
            metrics, details = measure_end_to_end(bench, config, args.seconds, store)
        store.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        machine=machine_info(bench.env), problems=bench.problems,
    )
    print(json.dumps(details))
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
