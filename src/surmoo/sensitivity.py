"""Surrogate-gradient sensitivity: the mean absolute elasticity ``s_bar`` of
each parameter over the training inputs, mapped to the per-parameter
distribution index array ``eta`` that crossover and mutation share, plus the
inverted control mapping. All three steps take and return plain arrays.
"""

from __future__ import annotations

import numpy as np

from .moea import ETA_MAX, ETA_MIN
from .surrogate import InputPass, JointSurrogate

__all__ = [
    "compute_elasticities",
    "indices_from_sensitivity",
    "invert_indices",
]

GRADIENT_BATCH = 1024
ETA_SCALE = 20.0


def compute_elasticities(
    model: JointSurrogate,
    inputs: np.ndarray,
    batch_size: int = GRADIENT_BATCH,
) -> np.ndarray:
    """``s_bar``: per parameter j, the mean absolute elasticity
    |dy_k/dx_j * x_j| over the given inputs, averaged across all objective
    outputs.

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
    return (sums / x.shape[0]).sum(axis=0) / model.q


def indices_from_sensitivity(s_bar: np.ndarray) -> np.ndarray:
    """eta_j = clip(1 + 20 * |S_j|, 1, 30), shared by crossover and mutation.
    Sensitive parameters get large indices (small perturbations)."""
    return np.clip(1.0 + ETA_SCALE * np.abs(s_bar), ETA_MIN, ETA_MAX)


def invert_indices(eta: np.ndarray) -> np.ndarray:
    """Control mapping eta -> 21 - eta, clipped back into [1, 30]."""
    return np.clip(21.0 - eta, ETA_MIN, ETA_MAX)
