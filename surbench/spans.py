"""Span tracing for one `surmoo` command, without editing the program.

`Tracer` wraps the module attributes that surmoo's CLI and engine call and
records one span per call: name, start, end, parent, and optional work
counts read from the arguments or the return value. Spans stay in memory and
are written once, when the command ends. A span's self time is its duration
minus the part of it that its children cover.

Run as a script, this file executes one traced surmoo command:

    python3 surbench/spans.py SPANS.json run --config C.yaml --seed 1 --out DIR

and writes the spans to SPANS.json. The process exits with the command's own
exit code. Spans are kept on one stack, so the traced command must run its
wrapped functions on one thread (the benchmark configs use `workers: 1`).
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name``. ``count``
        maps (args, kwargs, result) to a dict of work counts; it runs after
        the span has ended, so its cost is not charged to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "counts": {},
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced
        wrapper; `restore` puts the original back."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, count)
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, count))
            self._restore.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(i, [])):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result.append((span["end"] - span["start"]) - covered)
    return result


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: summed self seconds, call count and summed counts."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span["name"], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in span["counts"].items():
            entry[key] = entry.get(key, 0) + value
    return out


def root_residual(spans: list[dict]) -> float:
    """Duration of the root spans minus the self times of every span.

    Self times partition each root's interval when children nest inside
    their parents, so this is zero up to rounding; a larger value means the
    spans overlap or escape their parents."""
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return roots - sum(self_times(spans))


def _rows(args) -> int:
    return int(np.atleast_2d(np.asarray(args[1])).shape[0])


def _front_points(args) -> int:
    front = np.atleast_2d(np.asarray(args[0]))
    return int(front.shape[0]) if front.size else 0


def install(tracer: Tracer) -> None:
    """Wrap the public functions surmoo's CLI and engine reach through
    module attributes. Names are `<module>.<function>` of the definition."""
    from surmoo import cli, core, engine, feasolve, metrics, moea, runio, sampling, surrogate

    tracer.patch(cli, "cmd_run", "cli.cmd_run")
    tracer.patch(cli, "cmd_report", "cli.cmd_report")
    tracer.patch(engine, "run", "engine.run")
    tracer.patch(runio, "load_config", "runio.load_config")
    tracer.patch(runio, "write_run_directory", "runio.write_run_directory")
    tracer.patch(runio, "read_evaluations", "runio.read_evaluations")
    tracer.patch(
        engine, "evaluate_batch", "evaluator.evaluate_batch",
        lambda a, k, r: {"evals": len(r), "errors": sum(x.error is not None for x in r)},
    )
    tracer.patch(
        engine, "train_surrogate", "surrogate.train",
        lambda a, k, r: {"epochs": sum(r[1].fold_stop_epochs) + r[1].final_epochs},
    )
    tracer.patch(
        surrogate.JointSurrogate, "predict", "surrogate.predict",
        lambda a, k, r: {"rows": _rows(a)},
    )
    tracer.patch(moea, "generate", "moea.generate")
    tracer.patch(moea, "rank_population", "moea.rank_population")
    tracer.patch(
        feasolve, "make_feasible", "feasolve.make_feasible",
        lambda a, k, r: {"steps": len(r[1]), "early_stops": int(r[1].terminated_early)},
    )
    tracer.patch(engine, "compute_elasticities", "sensitivity.compute_elasticities")
    hv_points = lambda a, k, r: {"points": _front_points(a)}  # noqa: E731
    # the engine imported the name; the CLI calls it through the module
    tracer.patch(engine, "normalized_hypervolume", "metrics.normalized_hypervolume", hv_points)
    tracer.patch(metrics, "normalized_hypervolume", "metrics.normalized_hypervolume", hv_points)
    tracer.patch(core.ParetoArchive, "insert", "core.ParetoArchive.insert")
    for scheme in list(sampling.SAMPLER_SCHEMES):
        tracer.patch(sampling.SAMPLER_SCHEMES, scheme, "sampling.sample")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from surmoo import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
