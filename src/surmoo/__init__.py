"""surmoo: surrogate-assisted constrained multi-objective optimization.

A joint differentiable model learns objectives and constraint feasibility
from every true evaluation; its input gradients steer candidate batches
toward feasible, high-quality regions, hybridized with an NSGA-II loop.

Each exported name loads its submodule on first use (PEP 562), so neither
``import surmoo`` nor ``surmoo report`` loads the optimizer.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "core": ("EvaluationRecord", "ParameterSpace", "ParetoArchive", "Provenance",
                 "RandomStream", "RunHistory", "is_feasible"),
        "engine": ("RunConfig", "RunResult", "SensitivityConfig", "run"),
        "feasolve": ("FeasolveConfig",),
        "problems": ("PROBLEM_REGISTRY", "ProblemDefinition", "get_problem"),
        "stopping": ("StopConfig",),
        "surrogate": ("JointSurrogate", "SurrogateConfig"),
    }.items()
    for name in names
}

__all__ = [
    "EvaluationRecord",
    "FeasolveConfig",
    "JointSurrogate",
    "ParameterSpace",
    "ParetoArchive",
    "ProblemDefinition",
    "PROBLEM_REGISTRY",
    "Provenance",
    "RandomStream",
    "RunConfig",
    "RunHistory",
    "RunResult",
    "SensitivityConfig",
    "StopConfig",
    "SurrogateConfig",
    "get_problem",
    "is_feasible",
    "run",
    "__version__",
]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
