"""Surrogate-gradient sensitivity: per-parameter elasticities averaged over
training inputs, mapped to NSGA-II distribution indices, plus the inverted
control mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moea import ETA_MAX, ETA_MIN, DistributionIndices
from .surrogate import InputPass, JointSurrogate

__all__ = [
    "SensitivityIndices",
    "compute_elasticities",
    "indices_from_sensitivity",
    "invert_indices",
]

GRADIENT_BATCH = 1024
ETA_SCALE = 20.0


@dataclass(frozen=True)
class SensitivityIndices:
    """Mean absolute elasticity per parameter."""

    s_bar: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_bar, dtype=float)
        object.__setattr__(self, "s_bar", s)
        if np.any(s < 0.0):
            raise ValueError("elasticities are non-negative by construction")


def compute_elasticities(
    model: JointSurrogate,
    inputs: np.ndarray,
    batch_size: int = GRADIENT_BATCH,
) -> SensitivityIndices:
    """Mean absolute elasticity |dy_k/dx_j * x_j| over the given inputs,
    averaged across all objective outputs.

    Gradients are exact: one explicit forward pass per batch, then one
    backward pass per denormalized objective. Layer norm is per-sample, so
    the backward pass of the batch sum yields row-wise gradients.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[0] == 0:
        raise ValueError("need at least one input sample")
    if not model.has_objective_head:
        raise ValueError("elasticities require an objective head")
    sums = np.zeros((model.q, x.shape[1]))
    for start in range(0, x.shape[0], batch_size):
        batch = x[start : start + batch_size]
        forward = InputPass(model, batch)
        for k in range(model.q):
            dy = np.zeros_like(forward.y)
            dy[:, k] = 1.0
            sums[k] += np.abs(forward.gradient(dy) * batch).sum(axis=0)
    return SensitivityIndices((sums / x.shape[0]).sum(axis=0) / model.q)


def indices_from_sensitivity(sens: SensitivityIndices) -> DistributionIndices:
    """eta_j = clip(1 + 20 * |S_j|, 1, 30), shared by crossover and mutation.
    Sensitive parameters get large indices (small perturbations)."""
    eta = np.clip(1.0 + ETA_SCALE * np.abs(sens.s_bar), ETA_MIN, ETA_MAX)
    return DistributionIndices(eta.copy(), eta.copy())


def invert_indices(indices: DistributionIndices) -> DistributionIndices:
    """Control mapping eta -> 21 - eta, clipped back into [1, 30]."""
    inv_cross = np.clip(21.0 - indices.eta_cross, ETA_MIN, ETA_MAX)
    inv_mut = np.clip(21.0 - indices.eta_mut, ETA_MIN, ETA_MAX)
    return DistributionIndices(inv_cross, inv_mut)
