"""Built-in benchmark problems, by name in `PROBLEM_REGISTRY`: a two-sphere
trade-off whose Pareto set is a known segment, a thin-feasibility-band
problem whose joint feasible region is far too small for random sampling to
hit, and the classic constrained biobjective suite (BNH, SRN, TNK) with
constraints binarized to satisfied/violated flags.

Reference feasibility rates under uniform sampling were measured by Monte
Carlo ahead of time (1e7 samples for thin_band, 1e6 for the suite) and are
stored in the problem metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .core import ParameterSpace

__all__ = [
    "ProblemDefinition",
    "make_two_sphere",
    "make_thin_band",
    "make_bnh",
    "make_srn",
    "make_tnk",
    "get_problem",
    "check_problem_params",
    "PROBLEM_REGISTRY",
]


@dataclass
class ProblemDefinition:
    """A deterministic black-box with binary constraints."""

    name: str
    space: ParameterSpace
    n_objectives: int
    n_constraints: int
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    feasibility_rate: float | None = None  # uniform-sampling joint rate
    description: str = ""


def _check_dimension(problem: str, n, least: int) -> None:
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValueError(f"{problem} parameter n must be an integer, not {n!r}")
    if n < least:
        raise ValueError(f"{problem} needs at least {least} dimension" + "s" * (least > 1))


def _unit_space(n: int) -> ParameterSpace:
    return ParameterSpace(
        tuple(f"x{j + 1}" for j in range(n)), np.zeros(n), np.ones(n)
    )


def make_two_sphere(
    n: int = 2,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
) -> ProblemDefinition:
    """Unconstrained biobjective benchmark f1 = |x-a|^2, f2 = |x-b|^2.

    The Pareto set is exactly the segment [a, b].
    """
    _check_dimension("two_sphere", n, 1)
    a = np.full(n, 0.25) if a is None else np.asarray(a, dtype=float)
    b = np.full(n, 0.75) if b is None else np.asarray(b, dtype=float)
    if a.shape != (n,) or b.shape != (n,):
        raise ValueError("anchor points must match the dimension")
    if np.allclose(a, b):
        raise ValueError("anchor points must differ")

    def evaluate(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return (
            np.array([np.sum((x - a) ** 2), np.sum((x - b) ** 2)]),
            np.empty(0, dtype=np.int8),
        )

    return ProblemDefinition(
        name="two_sphere",
        space=_unit_space(n),
        n_objectives=2,
        n_constraints=0,
        evaluate=evaluate,
        feasibility_rate=1.0,
        description="distance-to-two-anchors trade-off; Pareto set is the segment [a, b]",
    )


THIN_BAND_RATE = 3.26e-4  # 1e7-sample Monte Carlo, uniform over the unit box


def make_thin_band(n: int = 6, nan_outside: float | None = None) -> ProblemDefinition:
    """Two-sphere objectives under three band constraints whose joint
    feasible region has measure ~3e-4: |x1-x2| <= 0.02, |x2-x3| <= 0.02,
    and sin(pi*x1) >= 0.95.

    With ``nan_outside`` set, points with any coordinate outside
    [nan_outside, 1 - nan_outside] return NaN objectives, emulating
    non-viable simulations; it must lie in [0, 0.5), so the box keeps a core.
    """
    _check_dimension("thin_band", n, 3)
    if nan_outside is not None and (isinstance(nan_outside, bool) or not (
            isinstance(nan_outside, Real) and 0.0 <= nan_outside < 0.5)):
        raise ValueError("thin_band parameter nan_outside must be None or a number in "
                         f"[0, 0.5), not {nan_outside!r}")
    sphere = make_two_sphere(n)

    def evaluate(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        objectives, _ = sphere.evaluate(x)
        if nan_outside is not None and (
            np.any(x < nan_outside) or np.any(x > 1.0 - nan_outside)
        ):
            objectives = np.full(2, np.nan)
        constraints = np.array(
            [
                abs(x[0] - x[1]) <= 0.02,
                abs(x[1] - x[2]) <= 0.02,
                np.sin(np.pi * x[0]) >= 0.95,
            ],
            dtype=np.int8,
        )
        return objectives, constraints

    return ProblemDefinition(
        name="thin_band",
        space=_unit_space(n),
        n_objectives=2,
        n_constraints=3,
        evaluate=evaluate,
        feasibility_rate=THIN_BAND_RATE,
        description="two-sphere objectives on a thin jointly-feasible band",
    )


def make_bnh() -> ProblemDefinition:
    """Binh-Korn problem with binarized constraints."""

    def evaluate(x: np.ndarray):
        x1, x2 = float(x[0]), float(x[1])
        f = np.array([4.0 * x1**2 + 4.0 * x2**2, (x1 - 5.0) ** 2 + (x2 - 5.0) ** 2])
        c = np.array(
            [
                (x1 - 5.0) ** 2 + x2**2 <= 25.0,
                (x1 - 8.0) ** 2 + (x2 + 3.0) ** 2 >= 7.7,
            ],
            dtype=np.int8,
        )
        return f, c

    space = ParameterSpace(("x1", "x2"), [0.0, 0.0], [5.0, 3.0])
    return ProblemDefinition(
        name="bnh",
        space=space,
        n_objectives=2,
        n_constraints=2,
        evaluate=evaluate,
        feasibility_rate=0.9358,  # 1e6-sample Monte Carlo
        description="Binh-Korn constrained biobjective benchmark",
    )


def make_srn() -> ProblemDefinition:
    """Srinivas problem with binarized constraints."""

    def evaluate(x: np.ndarray):
        x1, x2 = float(x[0]), float(x[1])
        f = np.array(
            [
                2.0 + (x1 - 2.0) ** 2 + (x2 - 1.0) ** 2,
                9.0 * x1 - (x2 - 1.0) ** 2,
            ]
        )
        c = np.array(
            [x1**2 + x2**2 <= 225.0, x1 - 3.0 * x2 + 10.0 <= 0.0], dtype=np.int8
        )
        return f, c

    space = ParameterSpace(("x1", "x2"), [-20.0, -20.0], [20.0, 20.0])
    return ProblemDefinition(
        name="srn",
        space=space,
        n_objectives=2,
        n_constraints=2,
        evaluate=evaluate,
        feasibility_rate=0.1615,  # 1e6-sample Monte Carlo
        description="Srinivas constrained biobjective benchmark",
    )


def make_tnk() -> ProblemDefinition:
    """Tanaka problem with binarized constraints."""

    def evaluate(x: np.ndarray):
        x1, x2 = float(x[0]), float(x[1])
        g1 = x1**2 + x2**2 - 1.0 - 0.1 * np.cos(16.0 * np.arctan2(x1, x2))
        g2 = (x1 - 0.5) ** 2 + (x2 - 0.5) ** 2
        return (
            np.array([x1, x2]),
            np.array([g1 >= 0.0, g2 <= 0.5], dtype=np.int8),
        )

    space = ParameterSpace(("x1", "x2"), [0.0, 0.0], [np.pi, np.pi])
    return ProblemDefinition(
        name="tnk",
        space=space,
        n_objectives=2,
        n_constraints=2,
        evaluate=evaluate,
        feasibility_rate=0.0506,  # 1e6-sample Monte Carlo
        description="Tanaka constrained biobjective benchmark",
    )


PROBLEM_REGISTRY: dict[str, Callable[..., ProblemDefinition]] = {
    "two_sphere": make_two_sphere,
    "thin_band": make_thin_band,
    "bnh": make_bnh,
    "srn": make_srn,
    "tnk": make_tnk,
}


def _factory(name: str) -> Callable[..., ProblemDefinition]:
    try:
        return PROBLEM_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; valid: {sorted(PROBLEM_REGISTRY)}"
        ) from None


def get_problem(name: str, **params) -> ProblemDefinition:
    return _factory(name)(**params)


def check_problem_params(name: str, params: dict) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered problem whose
    factory builds a problem from ``params``: it must take them as keyword
    arguments, and its own checks must accept their values. The problem is
    built and dropped (microseconds for every registered one), so a bad
    value fails the config, not the run."""
    factory = _factory(name)
    try:
        factory(**params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"problem_params rejected by {name!r}: {exc}") from None
