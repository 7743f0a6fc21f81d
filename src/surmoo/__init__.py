"""surmoo: surrogate-assisted constrained multi-objective optimization.

A joint differentiable model learns objectives and constraint feasibility
from every true evaluation; its input gradients steer candidate batches
toward feasible, high-quality regions, hybridized with an NSGA-II loop.
"""

from .core import (
    EvaluationRecord,
    ParameterSpace,
    ParetoArchive,
    Provenance,
    RandomStream,
    RunHistory,
    is_feasible,
)
from .engine import RunConfig, RunResult, SensitivityConfig, run
from .feasolve import FeasolveConfig
from .problems import PROBLEM_REGISTRY, ProblemDefinition, get_problem
from .surrogate import JointSurrogate, SurrogateConfig

__version__ = "0.1.0"

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
    "SurrogateConfig",
    "get_problem",
    "is_feasible",
    "run",
    "__version__",
]
