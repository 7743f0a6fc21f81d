"""Multi-objective quality indicators and surrogate accuracy.

Hypervolume is exact. Points are first clipped to the reference point.

- q=2: sort by the first objective (ties by the second), take the running
  minimum of the second and sum the rectangles between successive first-
  objective values: O(n log n). Dominated points and duplicates add
  zero-width or zero-height rectangles, so no filter is needed.
- q>=3: sweep the last objective. Between successive cut levels the
  dominated cross-section is the hypervolume of the points at or below the
  slab in the remaining objectives, computed recursively down to the q=2
  routine; slabs that recurse further are first reduced to their
  non-dominated rows. O(n^2 log n) for q=3; practical up to six objectives.

Normalization uses a shared nadir: objectives are divided component-wise by
the component-wise maximum across everything being compared, after shifting
any objective that takes negative values, and the reference point sits at
1.1 in every normalized coordinate, so the theoretical maximum normalized
hypervolume is 1.1^q.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import nondominated_mask

__all__ = [
    "NormalizationContext",
    "hypervolume",
    "normalized_hypervolume",
    "shared_normalization",
    "hv_auc",
    "igd",
    "epsilon_additive",
    "set_coverage",
    "nrmse",
    "REFERENCE_FACTOR",
    "HV_MAX_OBJECTIVES",
]

REFERENCE_FACTOR = 1.1
HV_MAX_OBJECTIVES = 6


def _as_front(points) -> np.ndarray:
    front = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(np.isnan(front)):
        raise ValueError("fronts must be NaN-free")
    return front


def hypervolume(front, reference) -> float:
    """Exact Lebesgue measure of the region dominated by ``front`` up to
    ``reference``. Points beyond the reference are clipped to it first; an
    empty front has volume zero."""
    reference = np.asarray(reference, dtype=float)
    front = np.atleast_2d(np.asarray(front, dtype=float))
    if front.size == 0:
        return 0.0
    front = _as_front(front)
    q = front.shape[1]
    if q != reference.shape[0]:
        raise ValueError("front and reference dimensions differ")
    if q > HV_MAX_OBJECTIVES:
        raise ValueError(
            f"exact hypervolume supports up to {HV_MAX_OBJECTIVES} objectives"
        )
    front = np.minimum(front, reference)
    if q == 1:
        return float(reference[0] - front[:, 0].min())
    if q == 2:
        return _hv2d(front, reference)
    return _hv_sweep(np.unique(front, axis=0), reference)


def _hv2d(points: np.ndarray, reference: np.ndarray) -> float:
    order = np.lexsort((points[:, 1], points[:, 0]))
    f1 = points[order, 0]
    lowest_f2 = np.minimum.accumulate(points[order, 1])
    widths = np.diff(f1, append=reference[0])
    return float(np.sum(widths * (reference[1] - lowest_f2)))


def _hv_sweep(points: np.ndarray, reference: np.ndarray) -> float:
    q = points.shape[1]
    if q == 2:
        return _hv2d(points, reference)
    order = np.argsort(points[:, -1], kind="stable")
    pts = points[order]
    levels = np.append(pts[:, -1], reference[-1])
    volume = 0.0
    for i in range(pts.shape[0]):
        thickness = levels[i + 1] - levels[i]
        if thickness <= 0.0:
            continue
        slab = pts[: i + 1, :-1]
        if q > 3:
            slab = slab[nondominated_mask(slab)]
        volume += thickness * _hv_sweep(slab, reference[:-1])
    return volume


@dataclass(frozen=True)
class NormalizationContext:
    """Shared-nadir normalization state.

    ``shift`` is zero for an objective whose observed values are all
    non-negative with a positive maximum. Any other objective (one with a
    negative value, or a non-positive nadir) is first shifted by its
    observed minimum, so every normalized value lies in [0, 1].
    """

    nadir: np.ndarray
    shift: np.ndarray

    @property
    def reference(self) -> np.ndarray:
        return np.full_like(self.nadir, REFERENCE_FACTOR)

    def normalize(self, points) -> np.ndarray:
        pts = _as_front(points)
        shifted = pts - self.shift
        divisor = np.where(self.nadir > 0.0, self.nadir, 1.0)
        return shifted / divisor


def shared_normalization(fronts) -> NormalizationContext:
    """Build the normalization context across all compared fronts: the nadir
    is the component-wise maximum over every point supplied, after the
    shift described on `NormalizationContext`."""
    stacked = np.vstack([_as_front(f) for f in fronts if np.size(f)])
    if stacked.size == 0:
        raise ValueError("no points to normalize against")
    nadir = stacked.max(axis=0)
    mins = stacked.min(axis=0)
    shift = np.where((nadir <= 0.0) | (mins < 0.0), mins, 0.0)
    nadir = (stacked - shift).max(axis=0)
    return NormalizationContext(nadir, shift)


def normalized_hypervolume(front, context: NormalizationContext) -> float:
    """Hypervolume of the normalized front against the 1.1 reference point.
    The maximum attainable value is 1.1^q. Empty fronts score zero."""
    if np.size(front) == 0:
        return 0.0
    unit = context.normalize(front)
    return hypervolume(unit, context.reference)


def hv_auc(hv_per_epoch) -> float:
    """Trapezoidal area under a hypervolume-vs-epoch series, by the array
    operations of ``np.trapezoid`` (numpy >= 2.0 only) at unit spacing."""
    series = np.asarray(hv_per_epoch, dtype=float)
    if series.size < 2:
        raise ValueError("need at least two epochs")
    return float(np.add.reduce((series[1:] + series[:-1]) / 2.0))


def igd(approximation, reference) -> float:
    """Mean distance from each reference point to its nearest
    approximation-front point."""
    a = _as_front(approximation)
    r = _as_front(reference)
    diff = r[:, None, :] - a[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return float(dist.min(axis=1).mean())


def epsilon_additive(approximation, reference) -> float:
    """Smallest additive shift making ``approximation`` weakly dominate
    every point of ``reference``; non-positive means it already does."""
    a = _as_front(approximation)
    b = _as_front(reference)
    gaps = (a[:, None, :] - b[None, :, :]).max(axis=2)  # shift needed a -> b
    return float(gaps.min(axis=0).max())


def set_coverage(a_front, b_front) -> float:
    """Fraction of ``b_front`` weakly dominated by ``a_front`` (equality
    counts as covered)."""
    a = _as_front(a_front)
    b = _as_front(b_front)
    weakly = np.all(a[:, None, :] <= b[None, :, :], axis=2)
    return float(np.any(weakly, axis=0).mean())


def nrmse(true_values, predicted) -> float:
    """Mean over objectives of RMSE divided by the observed range.

    Zero-range objectives cannot be normalized; they are excluded from the
    mean with a warning.
    """
    y = np.atleast_2d(np.asarray(true_values, dtype=float))
    y_hat = np.atleast_2d(np.asarray(predicted, dtype=float))
    if y.shape != y_hat.shape:
        raise ValueError("shape mismatch between true and predicted values")
    if y.shape[0] < 2:
        raise ValueError("need at least two samples")
    ranges = y.max(axis=0) - y.min(axis=0)
    usable = ranges > 0.0
    if not np.all(usable):
        warnings.warn(
            "objectives with zero range excluded from NRMSE", stacklevel=2
        )
    if not np.any(usable):
        return float("nan")
    rmse = np.sqrt(((y - y_hat) ** 2).mean(axis=0))
    return float((rmse[usable] / ranges[usable]).mean())
