"""Run configuration files and run-directory persistence.

Configs are YAML laid out as the `RunConfig` dataclass tree: a key per
field, a section per dataclass-valued field (`stop`, `surrogate`,
`feasolve`, `sensitivity`), and `problem_params` a free mapping checked by
the problem. The key check, the parser and the snapshot dumper are all
derived from `dataclasses.fields`, so no other code repeats the layout.
Unknown keys are rejected with the offending line and a close-match
suggestion, and so is a value that does not convert to its field's type,
with its dotted key.

Results are written as newline-delimited JSON records (one evaluation per
line; NaN and infinite objectives are serialized as null, which keeps the
log standard JSON and reads back as NaN, still non-viable) plus a
per-epoch metrics CSV with a column per `core.EpochMetrics` field: epoch,
cumulative_evals, hv_norm, feasible_count, nrmse, mode, feasolve_steps,
wall_seconds and ecov. A CSV written before ecov was recorded, with exactly
the first eight columns, reads with ecov NaN. Floats serialize via their
shortest round-trip decimal representation, so re-parsing a log reproduces
the values bit-exactly. The optional `sensitivity.csv` (a row per sub-block and
parameter) and `traces.ndjson` (a line per sub-block, descent step and
candidate) are written from `RunResult.blocks`; the traces' predicted
objectives and feasibilities also write every non-finite value as null.
Each row carries a `sub` field after its epoch, the sub-block it came from,
so the four sub-blocks of a dynamic-sampling epoch stay apart.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import MISSING
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import EvaluationRecord, EpochMetrics

if TYPE_CHECKING:  # yaml and the config classes load where a config is read or written
    from .config import RunConfig
    from .engine import RunResult

__all__ = [
    "ConfigError",
    "load_config",
    "build_run_config",
    "config_to_dict",
    "write_run_directory",
    "read_evaluations",
    "read_metrics",
    "EVALUATIONS_FILE",
    "METRICS_FILE",
    "CONFIG_FILE",
]

EVALUATIONS_FILE = "evaluations.ndjson"
METRICS_FILE = "metrics.csv"
CONFIG_FILE = "config.yaml"
SENSITIVITY_FILE = "sensitivity.csv"
TRACES_FILE = "traces.ndjson"

# metrics.csv has a column per `EpochMetrics` field, written and parsed by
# the field's type, which `core`'s postponed annotations give as its name
METRICS_FIELDS = dataclasses.fields(EpochMetrics)
METRICS_COLUMNS = tuple(f.name for f in METRICS_FIELDS)
_PARSERS = {"int": int, "float": float, "str": str}


class ConfigError(ValueError):
    pass


def _key_lines(node, prefix: tuple = ()) -> dict[tuple, int]:
    """Map the key paths under the YAML node ``node`` to 1-based line
    numbers, for error messages. A path written twice is a `ConfigError`:
    YAML would keep the last of its values and drop the first unread."""
    import yaml
    lines: dict[tuple, int] = {}
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            path = (*prefix, str(key_node.value))
            line = key_node.start_mark.line + 1
            if path in lines:
                where = f"at lines {lines[path]} and {line}"
                raise ConfigError(f"config key {'.'.join(path)!r} is written twice, {where}")
            lines[path] = line
            lines.update(_key_lines(value_node, path))
    return lines


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration. The text is composed
    once; the data and the key line map are both read off its node graph."""
    import yaml
    text = Path(path).read_text()
    try:
        loader = yaml.SafeLoader(text)  # rejects unprintable characters
        root = loader.get_single_node()
        lines = _key_lines(root)
        data = None if root is None else loader.construct_document(root)
        loader.dispose()
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return build_run_config(data, lines)


def build_run_config(data: dict, lines: dict[tuple, int] | None = None) -> RunConfig:
    """Build a `RunConfig` from a parsed config mapping; ``lines`` maps key
    paths, tuples of keys such as ``("surrogate", "mode")``, to line numbers
    for error messages, which join a path with dots."""
    from .config import RunConfig
    return _build(RunConfig, data, lines or {}, ())


def _build(cls, data: dict, lines: dict[tuple, int], prefix: tuple):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        path = (*prefix, str(key))
        if key not in fields:
            import difflib
            suggestion = difflib.get_close_matches(str(key), list(fields), n=1)
            hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
            raise ConfigError(f"unknown config key {_at(path, lines)}{hint}")
        kwargs[key] = _field_value(fields[key], value, lines, path)
    for name, f in fields.items():
        if name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config must name a {name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{_at(prefix, lines)}: {exc}" if prefix else str(exc)) from None


def _field_value(f: dataclasses.Field, value, lines: dict[tuple, int], path: tuple):
    """``value`` converted to the type of the field's default: a section is
    built recursively, a mapping (``problem_params``, checked by the problem
    factory) is copied, a list becomes a tuple, and a scalar goes through
    ``int`` or ``float``; a boolean must be written as one, a number must
    not be one, and an int field takes no fractional float. A float field,
    an entry of a float list (``dropout``) and the optional float
    ``threshold`` must be finite."""
    default = f.default if f.default_factory is MISSING else f.default_factory()
    if dataclasses.is_dataclass(default) or isinstance(default, dict):
        value = {} if value is None else value
        if not isinstance(value, dict):
            raise ConfigError(f"config key {_at(path, lines)} must be a mapping")
        if isinstance(default, dict):
            return dict(value)
        return _build(type(default), value, lines, path)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config key {_at(path, lines)} must be a list")
        floats = all(isinstance(d, float) for d in default)
        return tuple(_finite(v, lines, path) if floats else v for v in value)
    kind = type(default)
    if kind not in (bool, int, float):
        if "float" not in str(f.type):
            return value
        if isinstance(value, bool):  # float(True) would be 1.0
            raise ConfigError(f"config key {_at(path, lines)} must be a number, not {value!r}")
        return _finite(value, lines, path)
    try:
        # bool("flase") would be True, int(True) 1 and int(2.5) 2
        if (kind is bool) != isinstance(value, bool):
            raise ValueError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        converted = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"config key {_at(path, lines)} must be of type {kind.__name__}, "
            f"not {value!r}"
        ) from None
    return _finite(converted, lines, path)


def _finite(value, lines: dict[tuple, int], path: tuple):
    """``value`` of a float slot, unless it reads as a NaN or infinite
    number: YAML's ``.nan`` and ``.inf``, or a string such as ``nan`` that
    ``float`` takes. The range checks of the config dataclasses let NaN
    through."""
    try:
        finite = math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return value  # not a float; the field's own check decides
    if not finite:
        raise ConfigError(f"config key {_at(path, lines)} must be a finite number, not {value!r}")
    return value


def _at(path: tuple, lines: dict[tuple, int]) -> str:
    line = lines.get(path)
    dotted = ".".join(path)
    return f"{dotted!r} at line {line}" if line else repr(dotted)


def config_to_dict(config: RunConfig) -> dict:
    """Resolved configuration snapshot, YAML-serializable: the dataclass
    tree, with tuples written as lists."""
    return dataclasses.asdict(
        config,
        dict_factory=lambda items: {
            k: list(v) if isinstance(v, tuple) else v for k, v in items
        },
    )


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------


def _json_vector(values: np.ndarray) -> list:
    return [float(v) if np.isfinite(v) else None for v in np.asarray(values, dtype=float)]


def _record_line(rec: EvaluationRecord) -> str:
    payload = {
        "epoch": rec.epoch,
        "provenance": rec.provenance.value,
        "params": [float(v) for v in rec.params],
        "objectives": _json_vector(rec.objectives),
        "constraints": [int(v) for v in rec.constraints],
    }
    return json.dumps(payload, separators=(",", ":"))


def _metrics_row(m: EpochMetrics) -> str:
    """A float field as its shortest round-trip repr, any other by ``str``."""
    values = [(f.type, getattr(m, f.name)) for f in METRICS_FIELDS]
    return ",".join(repr(float(v)) if kind == "float" else str(v) for kind, v in values)


def write_run_directory(result: RunResult, out_dir) -> Path:
    import yaml
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / CONFIG_FILE).write_text(
        yaml.safe_dump(config_to_dict(result.config), sort_keys=False)
    )
    with open(out / EVALUATIONS_FILE, "w") as fh:
        for rec in result.history.records:
            fh.write(_record_line(rec) + "\n")
    with open(out / METRICS_FILE, "w") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for m in result.history.epoch_metrics:
            fh.write(_metrics_row(m) + "\n")
    sensitivity = [b for b in result.blocks if b.s_bar is not None]
    if sensitivity:
        names = result.problem.space.names
        with open(out / SENSITIVITY_FILE, "w") as fh:
            fh.write("epoch,sub,name,s_bar,eta\n")
            for b in sensitivity:
                for name, s, eta in zip(names, b.s_bar, b.eta):
                    fh.write(f"{b.epoch},{b.sub},{name},{float(s)!r},{float(eta)!r}\n")
    traced = [b for b in result.blocks if b.trace is not None]
    if traced:
        with open(out / TRACES_FILE, "w") as fh:
            for b in traced:
                for entry in b.trace.steps:
                    for i, cand in enumerate(entry.candidates):
                        payload = {
                            "epoch": b.epoch,
                            "sub": b.sub,
                            "step": entry.step,
                            "candidate": i,
                            "params": [float(v) for v in cand],
                            "pred_objectives": (
                                _json_vector(entry.pred_objectives[i])
                                if entry.pred_objectives is not None
                                else None
                            ),
                            "pred_feasibility": (
                                _json_vector(entry.pred_feasibility[i])
                                if entry.pred_feasibility is not None
                                else None
                            ),
                            "loss": entry.loss,
                        }
                        fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
    if result.surrogates:
        from .surrogate import save_checkpoint
        ckpt_dir = out / "surrogates"
        ckpt_dir.mkdir(exist_ok=True)
        for epoch, model in result.surrogates:
            save_checkpoint(model, ckpt_dir / f"epoch_{epoch:04d}.npz")
    return out


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------


def read_evaluations(run_dir) -> list[EvaluationRecord]:
    """Parse an evaluations log. A truncated or corrupt line, such as one
    missing a key or not holding a JSON object, or a record whose params,
    objectives or constraints shape differs from the first record's,
    raises ``ValueError`` with its line number: it is an error, not a
    silent drop."""
    path = Path(run_dir) / EVALUATIONS_FILE
    records: list[EvaluationRecord] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
                objectives = [
                    np.nan if v is None else float(v) for v in payload["objectives"]
                ]
                records.append(
                    EvaluationRecord(
                        params=np.array(payload["params"], dtype=float),
                        objectives=np.array(objectives, dtype=float),
                        constraints=payload["constraints"],
                        epoch=int(payload["epoch"]),
                        provenance=payload["provenance"],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: truncated or corrupt record ({exc!r})"
                ) from None
            for name in ("params", "objectives", "constraints"):
                got, want = getattr(records[-1], name).shape, getattr(records[0], name).shape
                if got != want:
                    raise ValueError(
                        f"{path}:{lineno}: {name} has shape {got}, "
                        f"the first record's has shape {want}"
                    )
    return records


def read_metrics(run_dir) -> list[dict]:
    """Parse a metrics CSV; a row that does not hold one value of the right
    type per column raises ``ValueError`` with its line number. A CSV with
    every column but ecov, the last, was written before ecov was recorded:
    it reads with ecov NaN."""
    path = Path(run_dir) / METRICS_FILE
    rows: list[dict] = []
    with open(path) as fh:
        header = tuple(fh.readline().strip().split(","))
        fields, missing = METRICS_FIELDS, {}
        if header == METRICS_COLUMNS[:-1]:
            fields, missing = METRICS_FIELDS[:-1], {"ecov": math.nan}
        elif header != METRICS_COLUMNS:
            raise ValueError(f"{path}: unexpected metrics header {list(header)}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                values = zip(fields, line.strip().split(","), strict=True)
                row = {f.name: _PARSERS[f.type](v) for f, v in values} | missing
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad metrics row ({exc})") from None
            rows.append(row)
    return rows
