"""Joint differentiable surrogate: a residual-MLP backbone with a linear
objective head and a sigmoid constraint head, trained on all accumulated
evaluations with cross-validated automatic epoch selection.

Training, prediction, feasibility descent and sensitivity analysis run on
explicit passes: a hand-written forward pass that caches its activations,
and a hand-written backward pass that writes every parameter gradient into
one flat gradient vector (with closed-form output gradients for the MSE
and BCE terms) and returns the gradient at the input projection's output,
from which `InputPass`, the pass `predict` also runs, takes input gradients
without computing any parameter gradient. The weights
are plain arrays in ``params``; while a fit runs they are views of one flat
parameter vector, which one vectorized Adam step updates. Each array
operation is the one the tape form, `autodiff.surrogate_forward`, records,
in the tape's order, so on float64 arrays the explicit passes agree with it
bit for bit; this module does not import the tape. The passes and Adam keep
the dtype they are given. Every fit trains in float32, with float64 loss
sums, and `train` upcasts the weights of the model it returns to float64,
so prediction, input gradients and checkpoints run in float64 on
float32-representable weights. Residual blocks use layer normalization (not
batch statistics), so a row's prediction and input gradient do not depend
on the rest of its batch, up to rounding: BLAS picks its accumulation order
per batch shape, so they may differ in the last bit. The hidden activation
is softplus, so input gradients are smooth everywhere.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .config import SurrogateConfig
from .core import ParameterSpace, RandomStream, expit

__all__ = [
    "TrainingSchedule",
    "OutputNormalizer",
    "JointSurrogate",
    "InputPass",
    "epoch_budget",
    "cv_folds",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

LAYER_NORM_EPS = 1e-5
ADAM_EPS = 1e-8
# a warm-started fit trains this share of the epoch count it is given
WARM_START_FRACTION = 0.25


def epoch_budget(n_samples: int) -> tuple[int, int]:
    """(E_max, patience) for a training-set size."""
    e_max = max(25, min(10**8 // n_samples, 10_000))
    return e_max, min(250, e_max)


@dataclass
class TrainingSchedule:
    """How one `train` call chose and spent its epochs. ``fold_stop_epochs``
    holds the epochs each CV fold ran, ``fold_best_epochs`` the epoch of each
    fold's last validation improvement (0 if none), and ``final_epochs`` the
    rounded mean of the best epochs, for which the returned model trained on
    all rows. Empty fold lists mean no fold ran in this fit: the epoch count
    was passed in, reused from an earlier fit of the same epoch, and
    ``final_epochs`` is the count this fit trained, that one for a fresh
    start and `WARM_START_FRACTION` of it for a warm start."""

    e_max: int
    patience: int
    fold_stop_epochs: list[int]
    fold_best_epochs: list[int]
    final_epochs: int


class OutputNormalizer:
    """Range scheme for objective targets.

    Forward: per-objective min-max to [0, 1] (clipped), affine rescale of the
    unit value onto the shared interval [max_j y_min_j, max_j y_max_j], then
    log1p. The inverse unclips nothing, so in-range values round-trip exactly
    and out-of-range head outputs extrapolate smoothly. Degenerate objectives
    (zero range) map to constant 0 and invert to their single value.
    """

    def __init__(self, y_min: np.ndarray, y_max: np.ndarray):
        self.y_min = np.asarray(y_min, dtype=float)
        self.y_max = np.asarray(y_max, dtype=float)
        self.col_span = self.y_max - self.y_min
        self.shared_min = float(np.max(self.y_min))
        self.shared_max = float(np.max(self.y_max))
        self.shared_span = self.shared_max - self.shared_min

    @classmethod
    def fit(cls, objectives: np.ndarray) -> "OutputNormalizer":
        objectives = np.atleast_2d(np.asarray(objectives, dtype=float))
        if np.any(np.isnan(objectives)):
            raise ValueError("NaN rows must be removed before fitting the normalizer")
        return cls(objectives.min(axis=0), objectives.max(axis=0))

    def transform(self, objectives: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(objectives, dtype=float))
        span = np.where(self.col_span > 0.0, self.col_span, 1.0)
        unit = np.clip((y - self.y_min) / span, 0.0, 1.0)
        unit = np.where(self.col_span > 0.0, unit, 0.0)
        # a degenerate shared interval would erase the unit values; keep the
        # rescale an identity map in that corner so the inverse still holds
        if self.shared_span > 0.0:
            shared = self.shared_min + unit * self.shared_span
        else:
            shared = unit
        return np.log1p(np.maximum(shared, -1.0 + 1e-12))

    def inverse(self, targets: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(np.asarray(targets, dtype=float))
        shared = np.expm1(t)
        if self.shared_span > 0.0:
            unit = (shared - self.shared_min) / self.shared_span
        else:
            unit = shared
        return self.y_min + unit * self.col_span

    def pullback(self, targets: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The gradient at ``targets`` of a scalar whose gradient at
        ``inverse(targets)`` is ``g``: g * col_span * (1 / shared_span) *
        exp(targets), the middle factor 1 for a zero shared span."""
        scale = 1.0 / self.shared_span if self.shared_span > 0.0 else 1.0
        return g * self.col_span * scale * np.exp(targets)

    def state(self) -> dict:
        return {"y_min": self.y_min.tolist(), "y_max": self.y_max.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "OutputNormalizer":
        return cls(np.array(state["y_min"]), np.array(state["y_max"]))


class JointSurrogate:
    """f: R^n -> R^(q+k) with shared residual backbone and two heads.

    A trained instance is immutable for inference purposes and safe to share
    across threads; prediction never touches batch statistics, so batched and
    row-by-row prediction agree up to BLAS rounding in the last bit.
    """

    def __init__(
        self,
        space: ParameterSpace,
        n_objectives: int,
        n_constraints: int,
        config: SurrogateConfig,
        stream: RandomStream,
    ):
        self.space = space
        self.q = int(n_objectives)
        self.k = int(n_constraints)
        self.config = config
        self.out_norm: OutputNormalizer | None = None
        self.has_objective_head = "o" in config.mode and self.q > 0
        self.has_constraint_head = "c" in config.mode and self.k > 0
        if not (self.has_objective_head or self.has_constraint_head):
            raise ValueError("surrogate has no active output head")
        self.params: dict[str, np.ndarray] = {}
        self._init_weights(stream)

    # ------------------------------------------------------------------

    def _dense_init(self, rng, fan_in: int, fan_out: int, name: str) -> None:
        bound = fan_in**-0.5
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(fan_out,))
        self.params[f"{name}.w"] = w
        self.params[f"{name}.b"] = b

    def _init_weights(self, stream: RandomStream) -> None:
        rng = stream.generator()
        cfg = self.config
        n, d, h = self.space.dim, cfg.block_dim, cfg.hidden_dim
        self._dense_init(rng, n, d, "proj")
        for i in range(cfg.blocks):
            self.params[f"block{i}.ln_scale"] = np.ones(d)
            self.params[f"block{i}.ln_shift"] = np.zeros(d)
            self._dense_init(rng, d, h, f"block{i}.fc1")
            self._dense_init(rng, h, d, f"block{i}.fc2")
        if self.has_objective_head:
            self._dense_init(rng, d, self.q, "head_obj")
        if self.has_constraint_head:
            self._dense_init(rng, d, self.k, "head_con")

    # ------------------------------------------------------------------

    def forward(self, x, train: bool = False, dropout_rng: np.random.Generator | None = None):
        """`autodiff.surrogate_forward` on a parameter-space `autodiff.Tensor`
        ``x``, with fresh leaf tensors for the weights. Its only caller is the
        benchmark kernel ``kernel.fwd_bwd_2x192.ms`` (``surbench/kernels.py``);
        it goes with the tape, once that kernel times `_forward` and
        `_backward`."""
        from . import autodiff
        leaves = {name: autodiff.Tensor(w, requires_grad=True) for name, w in self.params.items()}
        return autodiff.surrogate_forward(self, leaves, x, train, dropout_rng)

    # ------------------------------------------------------------------
    # explicit passes (training and batch prediction)
    # ------------------------------------------------------------------

    def _unit(self, x: np.ndarray) -> np.ndarray:
        """Parameter-space rows mapped into the unit box, by the same array
        operations as the first line of `autodiff.surrogate_forward`.
        Training, prediction and the descent distance target all use this
        one map."""
        return (x - self.space.lower) * (1.0 / self.space.span)

    def _forward(self, x_unit: np.ndarray, dropout_rng: np.random.Generator | None = None):
        """Explicit forward pass on unit-box rows (see `_unit`).

        Returns (normalized-objective predictions, constraint logits, cache);
        the cache holds the activations `_backward` needs. A dropout
        generator switches on training-mode dropout, drawing the same masks
        in the same order as `autodiff.surrogate_forward`. Means are sums
        divided by the count, as ``ndarray.mean`` computes them.
        """
        p = self.params
        p1, p2 = self.config.dropout if dropout_rng is not None else (0.0, 0.0)
        d = self.config.block_dim
        h = x_unit @ p["proj.w"] + p["proj.b"]
        blocks = []
        for i in range(self.config.blocks):
            centered = h - np.add.reduce(h, axis=1, keepdims=True) / d
            var = np.add.reduce(centered * centered, axis=1, keepdims=True) / d
            sigma = np.sqrt(var + LAYER_NORM_EPS)
            x_hat = centered / sigma
            z = x_hat * p[f"block{i}.ln_scale"] + p[f"block{i}.ln_shift"]
            u = z @ p[f"block{i}.fc1.w"] + p[f"block{i}.fc1.b"]
            e = np.exp(-np.abs(u))
            a = np.maximum(u, 0.0) + np.log1p(e)
            mask1 = mask2 = None
            if p1 > 0.0:
                mask1 = np.divide(dropout_rng.random(a.shape) >= p1, 1.0 - p1, dtype=a.dtype)
                a = a * mask1
            o = a @ p[f"block{i}.fc2.w"] + p[f"block{i}.fc2.b"]
            if p2 > 0.0:
                mask2 = np.divide(dropout_rng.random(o.shape) >= p2, 1.0 - p2, dtype=o.dtype)
                o = o * mask2
            blocks.append((x_hat, sigma, z, u, e, mask1, a, mask2))
            h = h + o
        y_out = c_out = None
        if self.has_objective_head:
            y_out = h @ p["head_obj.w"] + p["head_obj.b"]
        if self.has_constraint_head:
            c_out = h @ p["head_con.w"] + p["head_con.b"]
        return y_out, c_out, (x_unit, blocks, h)

    def _backward(self, cache, dy, dc, grads: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Explicit backward pass: given the output gradients ``dy`` and
        ``dc`` of the heads the loss uses (None for a head it does not),
        writes the gradient of the loss with respect to every parameter into
        ``grads`` (arrays keyed like ``params``) and returns the gradient with
        respect to the output of the input projection. Without ``grads`` it
        computes only that returned gradient, as input gradients need."""
        p = self.params
        d = self.config.block_dim
        x_unit, blocks, h = cache

        def dense(name, inputs, g):
            if grads is not None:
                np.add.reduce(g, axis=0, out=grads[f"{name}.b"])
                np.matmul(inputs.T, g, out=grads[f"{name}.w"])

        dh = None
        for head, g in (("head_obj", dy), ("head_con", dc)):
            if g is None:
                continue
            dense(head, h, g)
            dh_head = g @ p[f"{head}.w"].T
            dh = dh_head if dh is None else dh + dh_head
        for i in reversed(range(self.config.blocks)):
            x_hat, sigma, z, u, e, mask1, a, mask2 = blocks[i]
            g = dh if mask2 is None else dh * mask2
            dense(f"block{i}.fc2", a, g)
            g = g @ p[f"block{i}.fc2.w"].T
            if mask1 is not None:
                g = g * mask1
            # softplus' = expit(u), from the forward's exp(-|u|)
            g = g * expit(u, e)
            dense(f"block{i}.fc1", z, g)
            g = g @ p[f"block{i}.fc1.w"].T
            if grads is not None:
                np.add.reduce(g * x_hat, axis=0, out=grads[f"block{i}.ln_scale"])
                np.add.reduce(g, axis=0, out=grads[f"block{i}.ln_shift"])
            gx = g * p[f"block{i}.ln_scale"]
            mean_gx = np.add.reduce(gx, axis=1, keepdims=True) / d
            mean_gx_xhat = np.add.reduce(gx * x_hat, axis=1, keepdims=True) / d
            dh = dh + (gx - mean_gx - x_hat * mean_gx_xhat) / sigma
        dense("proj", x_unit, dh)
        return dh

    def _flat_parameters(self) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Copy the weights into one flat vector and rebind every ``params``
        entry to a view into it. Returns (parameters, gradient, gradient
        views keyed like ``params``); the gradient vector has the same
        layout and dtype as the parameter vector, which has the weights'
        dtype (float32 while `_train_single` runs)."""
        flat = np.concatenate([w.ravel() for w in self.params.values()])
        grad = np.zeros_like(flat)
        grads = {}
        start = 0
        for name, w in self.params.items():
            stop = start + w.size
            self.params[name] = flat[start:stop].reshape(w.shape)
            grads[name] = grad[start:stop].reshape(w.shape)
            start = stop
        return flat, grad, grads

    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Denormalized objective predictions and constraint probabilities."""
        return InputPass(self, x).predictions()

    # ------------------------------------------------------------------

    def load_weight_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every weight to a float64 copy of its array in ``arrays``
        (keyed like ``params``), so no two models share a weight array."""
        self.params = {name: np.array(arrays[name], dtype=np.float64) for name in self.params}


class InputPass:
    """One explicit forward pass on parameter-space rows, kept for any
    number of input gradients. ``y`` holds the denormalized objectives,
    `OutputNormalizer.inverse` of the head's output ``y_out``: the
    objectives `JointSurrogate.predict` returns. ``c_logits`` holds the
    constraint logits (None for an absent head), ``x_unit`` the rows in the
    unit box. `gradient` takes a gradient with respect to ``y`` back to
    ``y_out`` by `OutputNormalizer.pullback`, then runs the backward pass."""

    def __init__(self, model: JointSurrogate, x: np.ndarray):
        self.model = model
        self.x_unit = model._unit(np.atleast_2d(np.asarray(x, dtype=float)))
        self.y_out, self.c_logits, self._cache = model._forward(self.x_unit)
        self.y = self.y_out
        if self.y_out is not None and model.out_norm is not None:
            self.y = model.out_norm.inverse(self.y_out)

    def predictions(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``y`` and the constraint probabilities, what
        `JointSurrogate.predict` returns for the same rows."""
        return self.y, (expit(self.c_logits) if self.c_logits is not None else None)

    def gradient(self, dy: np.ndarray | None = None, dc: np.ndarray | None = None) -> np.ndarray:
        """Gradient with respect to the rows of a scalar whose gradients
        with respect to ``y`` and ``c_logits`` are ``dy`` and ``dc``."""
        norm = self.model.out_norm
        if dy is not None and norm is not None:
            dy = norm.pullback(self.y_out, dy)
        dh = self.model._backward(self._cache, dy, dc)
        return (dh @ self.model.params["proj.w"].T) * (1.0 / self.model.space.span)


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


class Adam:
    """Adam over one flat parameter vector, updated in place: the weights of
    a fit (`_train_single`) and the candidate rows of a descent
    (`feasolve.make_feasible`) both step through it.

    The update runs chunk by chunk through two preallocated buffers, so the
    slices of one chunk stay in a core's L2 cache across the dozen
    elementwise passes. At the default model size (about 300k parameters),
    whole-vector passes with fresh temporaries cost more than the arithmetic.
    """

    CHUNK = 1 << 15  # elements: 128 KiB per float32 array, 256 KiB per float64 one

    def __init__(self, flat: np.ndarray, grad: np.ndarray, lr: float):
        self.flat = flat
        self.grad = grad
        self.lr = lr
        self.beta1, self.beta2 = 0.9, 0.999
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._step = np.empty_like(flat)
        self._denom = np.empty_like(flat)
        self._chunks = [slice(i, i + self.CHUNK) for i in range(0, flat.size, self.CHUNK)]

    def step(self) -> None:
        """flat -= lr * m_hat / (sqrt(v_hat) + eps), with m_hat and v_hat the
        bias-corrected first and second moment estimates."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for c in self._chunks:
            g, m, v = self.grad[c], self.m[c], self.v[c]
            step, denom = self._step[c], self._denom[c]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=step)
            m += step
            v *= self.beta2
            np.multiply(g, g, out=step)
            step *= 1.0 - self.beta2
            v += step
            np.divide(v, b2c, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            np.divide(m, b1c, out=step)
            step *= self.lr
            step /= denom
            self.flat[c] -= step


def _composite_loss(y_out, c_out, y_targets, c_targets, grad: bool):
    """Mean squared error on the normalized objectives plus mean BCE on the
    constraint logits, for the heads that exist. Returns (loss, d loss /
    d y_out, d loss / d c_out); the gradients are None where a head is
    absent or ``grad`` is unset."""
    value = None
    dy = dc = None
    if y_out is not None:
        r = y_out - y_targets
        inv = 1.0 / r.size
        value = (r * r).sum(dtype=np.float64) * inv
        if grad:
            dy = inv * r
            dy = dy + dy
    if c_out is not None:
        inv = 1.0 / c_out.size
        e = np.exp(-np.abs(c_out))
        bce = np.maximum(c_out, 0.0) - c_out * c_targets + np.log1p(e)
        bce_value = bce.sum(dtype=np.float64) * inv
        value = bce_value if value is None else value + bce_value
        if grad:
            dc = inv * (expit(c_out, e) - c_targets)
    return float(value), dy, dc


def _train_single(model, x, y_targets, c_targets, epochs, cfg, rng, val=None, patience=None):
    """Train up to ``epochs`` epochs; returns the epoch count actually run
    and the epoch of the last validation improvement (0 without one).

    An epoch is one batch of all rows (views, not copies) or, above
    ``cfg.batch_size`` rows, the minibatches of a fresh ``rng`` permutation;
    each batch is a forward pass (dropout masks from ``rng``), a backward
    pass and an Adam step. Training runs in float32: weights, gradients,
    Adam moments, activations, unit-box inputs and targets. Loss sums are
    float64, so early stopping compares float64 values. The weights stay
    float32 on return; `train` upcasts the model it returns.

    With a validation split, early stopping monitors the validation loss at
    the given patience; weights are never restored to the best epoch, whose
    count `train` uses for the final fit. A non-finite batch loss returns
    before that batch's backward pass, leaving the weights of the last
    finite batch and not counting its epoch; a non-finite validation loss
    returns after its epoch.
    """
    f32 = np.float32
    model.params = {name: w.astype(f32) for name, w in model.params.items()}
    x_unit = model._unit(x).astype(f32)
    y_targets, c_targets = y_targets.astype(f32), c_targets.astype(f32)
    flat, grad, grads = model._flat_parameters()
    opt = Adam(flat, grad, cfg.learning_rate)
    if val is not None:
        vx, vy, vc = val
        vx_unit, vy, vc = model._unit(vx).astype(f32), vy.astype(f32), vc.astype(f32)
    n, size = x_unit.shape[0], cfg.batch_size
    best_val = np.inf
    best = since_best = 0
    for done in range(epochs):
        batches = np.split(rng.permutation(n), range(size, n, size)) if n > size else [slice(None)]
        for idx in batches:
            y_out, c_out, cache = model._forward(x_unit[idx], rng)
            value, dy, dc = _composite_loss(y_out, c_out, y_targets[idx], c_targets[idx], grad=True)
            if not np.isfinite(value):
                return done, best
            model._backward(cache, dy, dc, grads)
            opt.step()
        if val is not None:
            y_out, c_out, _ = model._forward(vx_unit)
            vloss, _, _ = _composite_loss(y_out, c_out, vy, vc, grad=False)
            if not np.isfinite(vloss):
                return done + 1, best
            if vloss < best_val:
                best_val = vloss
                best, since_best = done + 1, 0
            else:
                since_best += 1
                if patience is not None and since_best >= patience:
                    return done + 1, best
    return epochs, best


def _fit(x, y, c, rows, epochs, space, config, stream, val_rows=None, patience=None, start=None):
    """One `_train_single` fit of a new model on ``rows`` of (x, y, c),
    validated on ``val_rows`` if given. The weights are drawn from
    ``stream.child("init")``, then replaced by copies of ``start``'s if it
    is given, and the batches come from ``stream.child("epochs")``; the
    normalizer and Adam start fresh either way, the normalizer fitted on the
    objectives of ``rows`` alone. Returns (model, epochs run, best epoch)."""
    model = JointSurrogate(space, y.shape[1], c.shape[1], config, stream.child("init"))
    if start is not None:
        model.load_weight_arrays(start.params)
    norm = model.out_norm = OutputNormalizer.fit(y[rows]) if model.has_objective_head else None

    def take(r):  # (x, targets, c) of rows r; without an objective head, no targets
        y_r = y[r]
        return x[r], (norm.transform(y_r) if norm else np.zeros((len(y_r), 0))), c[r]

    val = None if val_rows is None else take(val_rows)
    rng = stream.child("epochs").generator()
    stop, best = _train_single(model, *take(rows), epochs, config, rng, val=val, patience=patience)
    return model, stop, best


def cv_folds(n: int, folds: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(training rows, validation rows) of each of ``folds`` CV folds over
    ``n`` rows: the validation rows are `np.array_split`'s contiguous chunks,
    and the training rows the ascending rest, which `np.setdiff1d` gives
    too (it imports ``numpy.ma``)."""
    return [(np.delete(np.arange(n), val), val) for val in np.array_split(np.arange(n), folds)]


def train(
    x: np.ndarray,
    y: np.ndarray,
    c: np.ndarray,
    space: ParameterSpace,
    config: SurrogateConfig,
    stream: RandomStream,
    final_epochs: int | None = None,
    start: JointSurrogate | None = None,
) -> tuple[JointSurrogate, TrainingSchedule]:
    """Fit the joint surrogate on finite evaluated rows: parameters ``x``,
    objectives ``y`` and constraint flags ``c`` (0/1), one row per
    evaluation, as `RunHistory.viable_arrays` returns them.

    Without ``final_epochs`` the epoch count is chosen by K-fold
    cross-validation: each fold trains with early stopping on its validation
    loss, the epochs of the folds' last validation improvements are
    averaged, and the returned model is retrained from scratch on all data
    for that mean count, not for the later epochs at which patience stopped
    the folds. Given ``final_epochs``, no fold runs: the final model trains
    for that many epochs, from the same ``stream`` draws as after the folds,
    and the schedule's fold lists are empty. Given also ``start``, a trained
    model of the same ``config``, the final model starts from copies of its
    weights instead of fresh ones and trains ``max(1, round(final_epochs *
    WARM_START_FRACTION))`` epochs, the count its schedule reports. The
    engine cross-validates once per dynamic-sampling epoch and passes the
    count on to the epoch's later fits, each of which starts from the model
    of the sub-block before it when that sub-block fitted one.

    Every fit, fold or final, is one `_fit` call: a new model whose
    normalizer sees that fit's training rows only. Fits train in float32
    (see `_train_single`); the returned model's weights are float64, each
    one a float32 value, so a warm start copies them exactly.
    """
    if final_epochs is not None and final_epochs < 1:
        raise ValueError(f"final_epochs must be at least 1, got {final_epochs}")
    if start is not None:
        if final_epochs is None:
            raise ValueError("a warm start needs final_epochs")
        if start.config != config:
            raise ValueError("a warm start needs a model of the same config")
        final_epochs = max(1, int(round(final_epochs * WARM_START_FRACTION)))
    n = x.shape[0]
    if n < 2 * config.folds:
        raise ValueError(f"need at least {2 * config.folds} finite records, got {n}")
    e_max, patience = epoch_budget(n)

    folds = cv_folds(n, config.folds) if final_epochs is None else []
    stops, bests = [], []
    for f, (rows, val_idx) in enumerate(folds):
        fold = stream.child(f"fold{f}")
        _, stop, best = _fit(x, y, c, rows, e_max, space, config, fold, val_idx, patience)
        stops.append(max(stop, 1))
        bests.append(best)

    if final_epochs is None:
        final_epochs = max(1, int(round(float(np.mean(bests)))))
    model, _, _ = _fit(
        x, y, c, slice(None), final_epochs, space, config, stream.child("final"), start=start
    )
    model.load_weight_arrays(model.params)  # float64 for inference
    schedule = TrainingSchedule(e_max, patience, stops, bests, final_epochs)
    return model, schedule


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


def save_checkpoint(model: JointSurrogate, path) -> None:
    """Write a self-describing checkpoint that round-trips bit-exactly."""
    meta = {
        "config": asdict(model.config),
        "q": model.q,
        "k": model.k,
        "names": list(model.space.names),
        "out_norm": model.out_norm.state() if model.out_norm else None,
    }
    arrays = {f"w::{name}": w for name, w in model.params.items()}
    arrays["space_lower"] = model.space.lower
    arrays["space_upper"] = model.space.upper
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> JointSurrogate:
    """The model `save_checkpoint` wrote to ``path``. A checkpoint of an
    older version loads too: its training-only config keys are dropped, and
    one whose ``activation`` is not softplus is refused, since this model's
    forward pass would predict wrongly from its weights."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        cfg_dict = dict(meta["config"])
        activation = cfg_dict.pop("activation", "softplus")
        if activation != "softplus":
            raise ValueError(f"checkpoint {path} has activation {activation!r}; only softplus loads")
        for key in ("objective_loss", "outlier_threshold", "exclude_infeasible"):
            cfg_dict.pop(key, None)
        cfg_dict["dropout"] = tuple(cfg_dict["dropout"])
        config = SurrogateConfig(**cfg_dict)
        space = ParameterSpace(
            tuple(meta["names"]), data["space_lower"], data["space_upper"]
        )
        model = JointSurrogate(
            space, meta["q"], meta["k"], config, RandomStream(0, "checkpoint")
        )
        model.load_weight_arrays(
            {key[3:]: data[key] for key in data.files if key.startswith("w::")}
        )
        if meta["out_norm"] is not None:
            model.out_norm = OutputNormalizer.from_state(meta["out_norm"])
    return model
