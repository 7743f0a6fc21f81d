"""Gradient-based feasibility solving on the frozen surrogate.

A candidate batch is refined by iterative descent against a composite loss
built from up to three targets: a hypervolume-style objective term against a
dynamic nadir and hypervolume's own reference (`metrics.REFERENCE_FACTOR`),
binary focal cross-entropy with fixed constants pushing constraint
probabilities toward all-feasible, and a pairwise-distance exploration term.
When several targets are active their gradients are rescaled to the L2 norm
of the first before summing. The candidates are stepped in place by
`surrogate.Adam`, the optimizer training uses, and clipped to the bounds
after every step; descent stops at the iteration cap or when the trailing
loss window plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import FeasolveConfig
from .core import expit
from .metrics import REFERENCE_FACTOR, shared_normalization
from .moea import RankedPopulation
from .surrogate import Adam, InputPass, JointSurrogate

__all__ = [
    "DescentTrace",
    "TraceStep",
    "loss_objective",
    "loss_constraint_logits",
    "loss_distance",
    "balance_gradients",
    "make_feasible",
    "hybrid_epoch_split",
    "select_diverse",
    "trace_diversity_filter",
]

EPS = 1e-12
FOCAL_GAMMA = 2.0  # the focal loss's constants (Lin et al., ICCV 2017)
FOCAL_ALPHA = 0.25


@dataclass
class TraceStep:
    step: int
    candidates: np.ndarray          # batch snapshot at iteration start
    loss: float                     # composite loss used for this step
    pred_objectives: np.ndarray | None
    pred_feasibility: np.ndarray | None


@dataclass
class DescentTrace:
    steps: list[TraceStep] = field(default_factory=list)
    terminated_early: bool = False
    aborted: bool = False

    def __len__(self) -> int:
        return len(self.steps)


# ----------------------------------------------------------------------
# composite-loss targets
# ----------------------------------------------------------------------
#
# Each target returns its value and gradient in closed form, by the array
# operations the autodiff tape once recorded for it, in the tape's order.


def loss_objective(y_pred, train_objectives):
    """Negated dominated-hypervolume proxy against a dynamic nadir.

    Both sides are first shifted as hypervolume shifts them, by
    `metrics.shared_normalization` of the training objectives. nadir_j is
    then the max of the batch predictions and the training history per
    objective; each candidate contributes the product over objectives of
    REFERENCE_FACTOR - y_ij / (nadir_j + eps). No factor reaches 0: the
    shifted training nadir is at least 0, so nadir_j + eps is positive and
    at least every shifted y_ij, each ratio is at most 1 in floating point
    and each factor at least REFERENCE_FACTOR - 1. Returns (value, gradient
    with respect to ``y_pred``); the gradient also flows through the nadir,
    split equally between rows tied at the batch maximum, and halved where
    that maximum ties the training maximum.
    """
    train = shared_normalization([train_objectives])  # nadir: the shifted training max
    y = np.atleast_2d(np.asarray(y_pred, dtype=float)) - train.shift
    batch_max = y.max(axis=0)
    den = np.maximum(batch_max, train.nadir) + EPS
    margin = REFERENCE_FACTOR - y / den
    # the product folds left to right; each factor's gradient is the
    # product of the factors after it (folded from the right) times the
    # product of those before it
    prefix = [np.ones(y.shape[0])]
    for j in range(y.shape[1]):
        prefix.append(prefix[-1] * margin[:, j])
    d_margin = np.empty_like(y)
    g = np.full(y.shape[0], -1.0)
    for j in reversed(range(y.shape[1])):
        d_margin[:, j] = g * prefix[j]
        g = g * margin[:, j]
    d_den = (d_margin * y / (den * den)).sum(axis=0)
    d_max = d_den * ((batch_max > train.nadir) + 0.5 * (batch_max == train.nadir))
    at_max = y == batch_max
    dy = -d_margin / den + d_max * at_max / at_max.sum(axis=0, keepdims=True)
    return float(-prefix[-1].sum()), dy


def loss_constraint_logits(c_logits):
    """Mean binary focal cross-entropy against the all-feasible target, on
    logits z: per entry alpha * sigmoid(-z)^gamma * softplus(-z), which is
    -alpha * (1 - c)^gamma * log(c) at c = sigmoid(z) but stays finite for
    saturated probabilities; gamma and alpha are FOCAL_GAMMA and FOCAL_ALPHA.
    Returns (value, gradient with respect to the logits)."""
    # -log sigmoid(z) = softplus(-z); 1 - sigmoid(z) = sigmoid(-z)
    neg = -np.asarray(c_logits, dtype=float)
    e = np.exp(-np.abs(neg))
    sig = expit(neg, e)
    weight = sig**FOCAL_GAMMA * FOCAL_ALPHA
    softplus = np.maximum(neg, 0.0) + np.log1p(e)
    inv = 1.0 / neg.size
    d_sig = inv * softplus * FOCAL_ALPHA * FOCAL_GAMMA * sig ** (FOCAL_GAMMA - 1)
    d_neg = d_sig * sig * (1.0 - sig) + inv * weight * sig
    return float((weight * softplus).sum() * inv), -d_neg


def loss_distance(candidates_unit, train_unit):
    """Negated mean pairwise Euclidean distance between bounds-normalized
    candidates and bounds-normalized training inputs. Returns (value,
    gradient with respect to ``candidates_unit``); a coincident pair adds
    no gradient."""
    x = np.atleast_2d(np.asarray(candidates_unit, dtype=float))
    t = np.atleast_2d(np.asarray(train_unit, dtype=float))
    diff = x[:, None, :] - t[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    inv = 1.0 / dist.size
    positive = dist > 0.0
    d_sq = -inv * np.where(positive, 0.5 / np.where(positive, dist, 1.0), 0.0)
    half = d_sq[:, :, None] * diff
    return float(-(dist.sum() * inv)), (half + half).sum(axis=1)


def balance_gradients(grads: list[np.ndarray]) -> np.ndarray:
    """Sum gradients after rescaling each to the L2 norm of the first."""
    if not grads:
        raise ValueError("no gradients to balance")
    ref_norm = float(np.linalg.norm(grads[0]))
    total = np.zeros_like(grads[0])
    for g in grads:
        total = total + (ref_norm / (float(np.linalg.norm(g)) + EPS)) * g
    return total


# ----------------------------------------------------------------------
# descent
# ----------------------------------------------------------------------


def _target_gradient(
    target: str,
    batch: InputPass,
    train_objectives: np.ndarray,
    train_unit: np.ndarray,
) -> tuple[float, np.ndarray | None]:
    """Value of one descent target at the current batch and, when it is
    finite, its gradient with respect to the candidates."""
    if target == "distance":
        value, g = loss_distance(batch.x_unit, train_unit)
        return value, g * (1.0 / batch.model.space.span)
    dy = dc = None
    if target == "constraint":
        if batch.c_logits is None:
            raise ValueError("constraint target requires a constraint head")
        value, dc = loss_constraint_logits(batch.c_logits)
    else:
        if batch.y is None:
            raise ValueError("objective target requires an objective head")
        value, dy = loss_objective(batch.y, train_objectives)
    if not np.isfinite(value):
        return value, None
    return value, batch.gradient(dy, dc)


def _quartiles_and_median(values: list[float]) -> tuple[float, float, float]:
    """``np.percentile(values, [75.0, 25.0])`` and ``np.median(values)``, bit
    for bit (but for the sign of a zero), by their operations on one sort of
    ``values``. A quartile's virtual index is ``(n - 1) * q``; between its
    neighbours ``a`` and ``b`` a weight ``t`` below 0.5 gives
    ``a + (b - a) * t``, and one of at least 0.5 ``b - (b - a) * (1 - t)``."""
    s = sorted(values)
    n = len(s)

    def quantile(q: float) -> float:
        index = (n - 1) * q
        lo = int(index)
        if lo >= n - 1:
            return s[-1]
        t = index - lo
        a, b = s[lo], s[lo + 1]
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    half = n // 2
    median = s[half] if n % 2 else (s[half - 1] + s[half]) / 2
    return quantile(0.75), quantile(0.25), median


def _plateaued(losses: list[float], window: int, ratio: float) -> bool:
    """Whether the last ``window`` losses have plateaued: their interquartile
    range is below ``ratio`` times the magnitude of their median (at least
    EPS).

    The quartiles and median come from `_quartiles_and_median`, not from
    `np.percentile` and `np.median`: those cost about 66 µs a step, and
    their first call in a process imports ``numpy.ma``, about 1.2 MB that
    nothing else here uses.
    """
    if len(losses) < window:
        return False
    q75, q25, median = _quartiles_and_median(losses[-window:])
    return (q75 - q25) / max(abs(median), EPS) < ratio


def make_feasible(
    x: np.ndarray,
    model: JointSurrogate,
    cfg: FeasolveConfig,
    train_objectives: np.ndarray,
    train_inputs: np.ndarray,
) -> tuple[np.ndarray, DescentTrace]:
    """Steer the (N, n) candidate rows ``x`` by descent on the frozen
    surrogate.

    The viable history feeds two targets: ``train_objectives`` (finite
    objective values) the dynamic nadir of the objective target, and
    ``train_inputs`` the exploration distance term. The rows are stepped in
    place, as one flat vector, by `surrogate.Adam`. Returns the refined
    rows, a new array (``x`` is not written to), and the full descent trace.
    """
    space = model.space
    x = np.array(x, dtype=float)  # a fresh C-ordered copy, stepped in place
    train_unit = model._unit(np.atleast_2d(np.asarray(train_inputs, dtype=float)))

    grad = np.empty_like(x)
    adam = Adam(x.reshape(-1), grad.reshape(-1), cfg.learning_rate)

    trace = DescentTrace()
    losses: list[float] = []
    for step in range(cfg.max_iters):
        batch = InputPass(model, x)
        values, grads = zip(*(_target_gradient(t, batch, train_objectives, train_unit)
                              for t in cfg.targets))
        if not np.all(np.isfinite(values)):
            trace.aborted = True
            break
        total_loss = sum(values)

        y_pred, c_pred = batch.predictions()
        trace.steps.append(TraceStep(step, x.copy(), total_loss, y_pred, c_pred))
        losses.append(total_loss)

        grad[...] = balance_gradients(list(grads)) if len(grads) > 1 else grads[0]
        adam.step()
        np.clip(x, space.lower, space.upper, out=x)

        if _plateaued(losses, cfg.plateau_window, cfg.plateau_ratio):
            trace.terminated_early = True
            break
    return x, trace


def hybrid_epoch_split(ranked: RankedPopulation) -> tuple[np.ndarray, np.ndarray]:
    """Partition a rank-sorted population: the top half is preserved
    untouched, the rest is routed to descent. Odd sizes keep the extra
    member on the elite side."""
    ordered = ranked.sorted_members()
    n_elite = int(np.ceil(ordered.shape[0] / 2))
    return ordered[:n_elite], ordered[n_elite:]


# ----------------------------------------------------------------------
# trace diversity filtering
# ----------------------------------------------------------------------


def select_diverse(predictions: np.ndarray, k: int) -> np.ndarray:
    """Indices of k diverse points under the iterative-removal rule.

    Predictions are min-max normalized per objective once; then the point
    with the smallest minimum pairwise Euclidean distance to any remaining
    point is removed until k remain. Distance ties remove the smaller
    (earlier) index first.
    """
    preds = np.atleast_2d(np.asarray(predictions, dtype=float))
    n = preds.shape[0]
    if k >= n:
        return np.arange(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    span = preds.max(axis=0) - preds.min(axis=0)
    span = np.where(span > 0.0, span, 1.0)
    unit = (preds - preds.min(axis=0)) / span
    diff = unit[:, None, :] - unit[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)

    alive = np.ones(n, dtype=bool)
    nearest_idx = dist.argmin(axis=1)
    nearest_val = dist[np.arange(n), nearest_idx]
    for _ in range(n - k):
        # argmin returns the first (earliest-index) minimizer on ties
        removed = int(np.argmin(np.where(alive, nearest_val, np.inf)))
        alive[removed] = False
        dist[:, removed] = np.inf
        dist[removed, :] = np.inf
        for i in np.nonzero(alive & (nearest_idx == removed))[0]:
            nearest_idx[i] = int(np.argmin(dist[i]))
            nearest_val[i] = dist[i, nearest_idx[i]]
    return np.nonzero(alive)[0]


def _even_stride(count: int, target: int) -> np.ndarray:
    """At most ``target`` indices into ``count`` items, evenly spread and
    ascending, ``count - 1`` last: the rounded linspace never decreases, so
    dropping its consecutive repeats is `np.unique`, which imports
    ``numpy.ma``."""
    idx = np.linspace(0, count - 1, target).round().astype(int)
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]


def trace_diversity_filter(trace: DescentTrace, k: int, pool_cap: int = 512) -> np.ndarray:
    """Select k diverse parameter points along a descent trace.

    Every (step, candidate) snapshot with predicted objectives is a
    selectable point; diversity is measured in normalized predicted-objective
    space. Asking for more points than the trace holds returns all of them.

    The exact removal loop is quadratic in memory, so long traces are first
    thinned to at most ``pool_cap`` points by an even stride over steps (the
    final step always stays in the pool).
    """
    steps = [entry for entry in trace.steps if entry.pred_objectives is not None]
    if not steps:
        return np.empty((0, 0))
    batch = steps[0].candidates.shape[0]
    if batch * len(steps) > pool_cap:
        steps = [steps[i] for i in _even_stride(len(steps), max(1, pool_cap // batch))]
    points: list[np.ndarray] = []
    preds: list[np.ndarray] = []
    for entry in steps:
        for cand, pred in zip(entry.candidates, entry.pred_objectives):
            points.append(cand)
            preds.append(pred)
    points_arr = np.array(points)
    if k >= len(points):
        return points_arr
    keep = select_diverse(np.array(preds), k)
    return points_arr[keep]
