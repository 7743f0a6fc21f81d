"""Initial-design generators: symmetric Latin hypercube (default), Latin
hypercube, Monte Carlo, and Sobol sequences.

All samplers are pure functions of (space, N, stream) and return points
inside the bounds. SLHC and LHC place exactly one point per stratum in every
one-dimensional projection; SLHC additionally emits points in center-mirrored
pairs with mirrored within-stratum jitter, so pair sums equal lower+upper up
to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ParameterSpace, RandomStream

__all__ = [
    "DesignMatrix",
    "sample_slhc",
    "sample_lhc",
    "sample_mc",
    "sample_sobol",
    "get_sampler",
    "SAMPLER_SCHEMES",
]

SOBOL_MAX_DIM = 64


@dataclass
class DesignMatrix:
    points: np.ndarray  # N x n, within bounds
    scheme: str


def _scale(unit: np.ndarray, space: ParameterSpace) -> np.ndarray:
    return space.lower + unit * space.span


def sample_slhc(space: ParameterSpace, n_points: int, stream: RandomStream) -> DesignMatrix:
    """Symmetric Latin hypercube design.

    Requires an even ``n_points`` so every point has a mirror partner
    p' = lower + upper - p. Strata come in complementary pairs
    {s, N-1-s}; the mirror reuses the partner stratum with jitter 1-u,
    which makes the symmetry exact in unit coordinates.
    """
    if n_points < 2:
        raise ValueError("SLHC needs at least 2 points")
    if n_points % 2 != 0:
        raise ValueError(
            f"SLHC needs an even sample count for symmetry pairing; use {n_points + 1}"
        )
    rng = stream.generator()
    n = space.dim
    half = n_points // 2
    unit = np.empty((n_points, n))
    for j in range(n):
        pair_order = rng.permutation(half)
        flip = rng.random(half) < 0.5
        strata = np.where(flip, n_points - 1 - pair_order, pair_order)
        jitter = rng.random(half)
        unit[:half, j] = (strata + jitter) / n_points
        unit[half:, j] = (n_points - strata - jitter) / n_points
    return DesignMatrix(_scale(unit, space), "slhc")


def sample_lhc(space: ParameterSpace, n_points: int, stream: RandomStream) -> DesignMatrix:
    """Latin hypercube: one uniformly jittered point per stratum and axis."""
    if n_points < 1:
        raise ValueError("need at least 1 point")
    rng = stream.generator()
    n = space.dim
    unit = np.empty((n_points, n))
    for j in range(n):
        strata = rng.permutation(n_points)
        unit[:, j] = (strata + rng.random(n_points)) / n_points
    return DesignMatrix(_scale(unit, space), "lhc")


def sample_mc(space: ParameterSpace, n_points: int, stream: RandomStream) -> DesignMatrix:
    """Independent uniform samples over the box."""
    if n_points < 1:
        raise ValueError("need at least 1 point")
    rng = stream.generator()
    unit = rng.random((n_points, space.dim))
    return DesignMatrix(_scale(unit, space), "mc")


def sample_sobol(space: ParameterSpace, n_points: int, stream: RandomStream) -> DesignMatrix:
    """First ``n_points`` of the unscrambled base-2 Sobol sequence.

    Dimensions above SOBOL_MAX_DIM fall back to a Latin hypercube with a
    warning; initial designs beyond that size gain nothing from Sobol.
    """
    if n_points < 1:
        raise ValueError("need at least 1 point")
    if space.dim > SOBOL_MAX_DIM:
        warnings.warn(
            f"Sobol sampler supports up to {SOBOL_MAX_DIM} dimensions; "
            f"falling back to Latin hypercube for n={space.dim}",
            stacklevel=2,
        )
        design = sample_lhc(space, n_points, stream)
        return DesignMatrix(design.points, "sobol")
    # imported here: scipy.stats takes most of a second to import, and only
    # Sobol designs need it
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=space.dim, scramble=False)
    # draw a power-of-two block and truncate: identical leading points,
    # and it keeps scipy from warning about unbalanced sample counts
    m = int(np.ceil(np.log2(n_points)))
    unit = sampler.random_base2(m=m)[:n_points]
    return DesignMatrix(_scale(unit, space), "sobol")


SAMPLER_SCHEMES = {
    "slhc": sample_slhc,
    "lhc": sample_lhc,
    "mc": sample_mc,
    "sobol": sample_sobol,
}


def get_sampler(scheme: str):
    try:
        return SAMPLER_SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown sampling scheme {scheme!r}; valid: {sorted(SAMPLER_SCHEMES)}"
        ) from None
