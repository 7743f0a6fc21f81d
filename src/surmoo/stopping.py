"""Dynamic stopping criteria as a restricted expression mini-language.

Expressions are parsed once at configuration load and evaluated against the
optimization history after each epoch. Only a safe subset is allowed:
comparisons, boolean connectives, basic arithmetic, numeric literals, the
``iteration`` counter, and window aggregates like ``max(recent('hv', 3))``,
whose metric name is the only place a string may appear.
Anything else is rejected at parse time, and so is an expression that
raises a type error (``recent('hv', 2) < 1`` compares a list with a number)
when evaluated once on one finite value per metric, so a bad expression
fails the run before it starts, not in the middle.
"""

from __future__ import annotations

import ast
import math

__all__ = ["StopExpression", "STOP_METRICS"]

STOP_METRICS = ("hv", "feasible_count", "nrmse", "ecov", "evals")

_ALLOWED_CALLS = {"max", "min", "sum", "len", "abs", "recent"}
_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.UnaryOp,
    ast.Not,
    ast.USub,
    ast.Compare,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.Eq,
    ast.NotEq,
    ast.BinOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
)


class StopExpression:
    """A validated, side-effect-free convergence criterion."""

    def __init__(self, expression: str):
        self.source = expression
        try:
            tree = ast.parse(expression, mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"invalid stop expression: {exc}") from None
        self._validate(tree)
        self._code = compile(tree, "<stop-expression>", "eval")
        try:
            self.evaluate(0, {name: [1.0] for name in STOP_METRICS})
        except TypeError as exc:
            raise ValueError(f"invalid stop expression: {exc}") from None

    def _validate(self, tree: ast.Expression) -> None:
        metric_names = set()  # recent()'s first arguments; a walk meets calls first
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ValueError(
                    f"stop expressions may not use {type(node).__name__}"
                )
            if isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                    raise ValueError(
                        f"stop expressions may only call {sorted(_ALLOWED_CALLS)}"
                    )
                if isinstance(node.func, ast.Name) and node.func.id == "recent":
                    self._validate_recent(node)
                    metric_names.add(id(node.args[0]))
            if isinstance(node, ast.Name) and node.id not in _ALLOWED_CALLS | {"iteration"}:
                raise ValueError(f"unknown name {node.id!r} in stop expression")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float, bool)):
                if not isinstance(node.value, str) or id(node) not in metric_names:
                    raise ValueError(
                        "only numeric literals are allowed, and a string only as "
                        "recent()'s metric name"
                    )

    @staticmethod
    def _validate_recent(node: ast.Call) -> None:
        if len(node.args) != 2:
            raise ValueError("recent(metric, window) takes exactly two arguments")
        metric = node.args[0]
        if isinstance(metric, ast.Constant) and isinstance(metric.value, str):
            if metric.value not in STOP_METRICS:
                raise ValueError(
                    f"unknown metric {metric.value!r}; valid: {list(STOP_METRICS)}"
                )
        else:
            raise ValueError("recent() requires a literal metric name")

    def evaluate(self, iteration: int, series: dict[str, list[float]]) -> bool:
        """Evaluate against the history. ``series`` maps metric names to
        their per-epoch values; an empty window yields NaN so unguarded
        aggregates never stop the run spuriously, and for the same reason an
        arithmetic error (a division by zero, an overflowing window) counts
        as not satisfied."""

        def recent(name: str, window: int) -> list[float]:
            values = series.get(name, [])
            tail = values[-int(window):] if window > 0 else []
            return list(tail) if tail else [math.nan]

        env = {
            "iteration": iteration,
            "recent": recent,
            "max": max,
            "min": min,
            "sum": sum,
            "len": len,
            "abs": abs,
        }
        try:
            return bool(eval(self._code, {"__builtins__": {}}, env))
        except ArithmeticError:
            return False
