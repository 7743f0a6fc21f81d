"""Gradient-based feasibility solving on the frozen surrogate.

A candidate batch is refined by iterative descent against a composite loss
built from up to four targets: a hypervolume-style objective term against a
dynamic nadir, binary focal cross-entropy pushing constraint probabilities
toward all-feasible, a pairwise-distance exploration term, and a
non-negativity penalty. When several targets are active their gradients are
rescaled to the L2 norm of the first before summing. Coordinates are clipped
to the bounds after every step; descent stops at the iteration cap or when
the trailing loss window plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import expit
from .moea import RankedPopulation
from .surrogate import InputPass, JointSurrogate

__all__ = [
    "FeasolveConfig",
    "DescentTrace",
    "TraceStep",
    "loss_objective",
    "loss_constraint_logits",
    "loss_distance",
    "loss_zero",
    "balance_gradients",
    "make_feasible",
    "hybrid_epoch_split",
    "select_diverse",
    "trace_diversity_filter",
]

EPS = 1e-12
TARGETS = ("objective", "constraint", "distance", "zero")


@dataclass
class FeasolveConfig:
    enabled: bool = False  # read by the engine, like trace_samples
    targets: tuple[str, ...] = ("objective", "constraint")
    max_iters: int = 1000
    learning_rate: float = 0.001
    plateau_window: int = 50
    plateau_ratio: float = 0.01
    reference_factor: float = 1.1
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    trace_samples: int = 0  # explorers replaced by trace re-anchoring points

    def __post_init__(self):
        if self.trace_samples < 0:
            raise ValueError("trace_samples must be non-negative")
        # a window of 0 reads the whole loss list and reports a plateau
        # after the first step; a negative one slices from the front
        if self.max_iters < 1 or self.plateau_window < 1:
            raise ValueError("max_iters and plateau_window must be at least 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        self.targets = tuple(self.targets)
        if not self.targets:
            raise ValueError("at least one descent target is required")
        unknown = set(self.targets) - set(TARGETS)
        if unknown:
            raise ValueError(f"unknown descent targets: {sorted(unknown)}")


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


def loss_objective(y_pred, train_objectives, reference_factor: float = 1.1):
    """Negated dominated-hypervolume proxy against a dynamic nadir.

    nadir_j is the max of the batch predictions and the training history per
    objective; each candidate contributes the product over objectives of
    max(r - y_ij / (nadir_j + eps), 0). Returns (value, gradient with
    respect to ``y_pred``); the gradient also flows through the nadir, split
    equally between rows tied at the batch maximum, and halved where that
    maximum ties the training maximum.
    """
    y = np.atleast_2d(np.asarray(y_pred, dtype=float))
    train_max = np.atleast_2d(np.asarray(train_objectives, dtype=float)).max(axis=0)
    batch_max = y.max(axis=0)
    den = np.maximum(batch_max, train_max) + EPS
    margin = reference_factor - y / den
    live = margin > 0.0
    clamped = margin * live
    # the product folds left to right; each factor's gradient is the
    # product of the factors after it (folded from the right) times the
    # product of those before it
    prefix = [np.ones(y.shape[0])]
    for j in range(y.shape[1]):
        prefix.append(prefix[-1] * clamped[:, j])
    d_clamped = np.empty_like(y)
    g = np.full(y.shape[0], -1.0)
    for j in reversed(range(y.shape[1])):
        d_clamped[:, j] = g * prefix[j]
        g = g * clamped[:, j]
    d_scaled = -(d_clamped * live)
    d_den = (-d_scaled * y / (den * den)).sum(axis=0)
    d_max = d_den * ((batch_max > train_max) + 0.5 * (batch_max == train_max))
    at_max = y == batch_max
    dy = d_scaled / den + d_max * at_max / at_max.sum(axis=0, keepdims=True)
    return float(-prefix[-1].sum()), dy


def loss_constraint_logits(c_logits, gamma: float = 2.0, alpha: float = 0.25):
    """Mean binary focal cross-entropy against the all-feasible target, on
    logits z: per entry alpha * sigmoid(-z)^gamma * softplus(-z), which is
    -alpha * (1 - c)^gamma * log(c) at c = sigmoid(z) but stays finite for
    saturated probabilities. Returns (value, gradient with respect to the
    logits)."""
    # -log sigmoid(z) = softplus(-z); 1 - sigmoid(z) = sigmoid(-z)
    neg = -np.asarray(c_logits, dtype=float)
    sig = expit(neg)
    weight = sig**gamma * alpha
    softplus = np.maximum(neg, 0.0) + np.log1p(np.exp(-np.abs(neg)))
    inv = 1.0 / neg.size
    d_sig = inv * softplus * alpha * gamma * sig ** (gamma - 1)
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


def loss_zero(y_pred):
    """Squared penalty for negative predicted objective values: the sum of
    relu(-y)^2. Returns (value, gradient with respect to ``y_pred``,
    -2 relu(-y))."""
    neg = -np.asarray(y_pred, dtype=float)
    live = neg > 0.0
    short = neg * live
    return float((short**2).sum()), -(2.0 * short * live)


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
    cfg: FeasolveConfig,
    train_y: np.ndarray,
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
        value, dc = loss_constraint_logits(batch.c_logits, cfg.focal_gamma, cfg.focal_alpha)
    else:
        if batch.y is None:
            raise ValueError(f"{target} target requires an objective head")
        if target == "objective":
            value, dy = loss_objective(batch.y, train_y, cfg.reference_factor)
        else:
            value, dy = loss_zero(batch.y)
    if not np.isfinite(value):
        return value, None
    return value, batch.gradient(dy, dc)


def _plateaued(losses: list[float], window: int, ratio: float) -> bool:
    if len(losses) < window:
        return False
    recent = np.array(losses[-window:])
    q75, q25 = np.percentile(recent, [75.0, 25.0])
    iqr = q75 - q25
    median = np.median(recent)
    return iqr / max(abs(median), EPS) < ratio


def make_feasible(
    x: np.ndarray,
    model: JointSurrogate,
    cfg: FeasolveConfig,
    train_objectives: np.ndarray | None = None,
    train_inputs: np.ndarray | None = None,
) -> tuple[np.ndarray, DescentTrace]:
    """Steer the (N, n) candidate rows ``x`` by descent on the frozen
    surrogate.

    ``train_objectives`` (history objective values, NaN-free) feed the
    dynamic nadir of the objective target; ``train_inputs`` feed the
    exploration distance term. Uses Adam, or plain SGD when the
    non-negativity target runs alone. Returns the refined rows, a new array
    (``x`` is not written to), and the full descent trace.
    """
    space = model.space
    x = np.array(x, dtype=float)
    train_y = (
        np.atleast_2d(np.asarray(train_objectives, dtype=float))
        if train_objectives is not None and np.size(train_objectives)
        else np.zeros((1, model.q))
    )
    train_unit = (
        model._unit(np.atleast_2d(np.asarray(train_inputs, dtype=float)))
        if train_inputs is not None and np.size(train_inputs)
        else np.zeros((1, space.dim))
    )

    use_sgd = cfg.targets == ("zero",)
    m_state = np.zeros_like(x)
    v_state = np.zeros_like(x)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8

    trace = DescentTrace()
    losses: list[float] = []
    for step in range(cfg.max_iters):
        batch = InputPass(model, x)
        values, grads = zip(
            *(_target_gradient(t, batch, cfg, train_y, train_unit) for t in cfg.targets)
        )
        if not np.all(np.isfinite(values)):
            trace.aborted = True
            break
        total_loss = sum(values)

        y_pred, c_pred = batch.predictions()
        trace.steps.append(
            TraceStep(step, x.copy(), total_loss, y_pred, c_pred)
        )
        losses.append(total_loss)

        combined = balance_gradients(list(grads)) if len(grads) > 1 else grads[0]
        if use_sgd:
            x = x - cfg.learning_rate * combined
        else:
            t = step + 1
            m_state = beta1 * m_state + (1.0 - beta1) * combined
            v_state = beta2 * v_state + (1.0 - beta2) * combined * combined
            m_hat = m_state / (1.0 - beta1**t)
            v_hat = v_state / (1.0 - beta2**t)
            x = x - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
        x = np.clip(x, space.lower, space.upper)

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
        target_steps = max(1, pool_cap // batch)
        chosen = np.unique(
            np.linspace(0, len(steps) - 1, target_steps).round().astype(int)
        )
        steps = [steps[i] for i in chosen]
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
