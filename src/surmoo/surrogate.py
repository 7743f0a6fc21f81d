"""Joint differentiable surrogate: a residual-MLP backbone with a linear
objective head and a sigmoid constraint head, trained on all accumulated
evaluations with cross-validated automatic epoch selection.

Training, prediction, feasibility descent and sensitivity analysis run on
explicit passes: a hand-written forward pass that caches its activations,
and a hand-written backward pass that writes every parameter gradient into
one flat gradient vector (with closed-form output gradients for the BCE term
and each objective loss) and returns the gradient at the input projection's
output, from which `InputPass` takes input gradients without computing any
parameter gradient. One vectorized Adam step updates one flat parameter
vector, of which the ``params`` tensors are views. Each array operation is
the one the autodiff tape (`forward`) would record, in the tape's order, so
on float64 arrays the explicit passes agree with it bit for bit. The passes
and Adam keep the dtype they are given. Every fit trains in float32, with
float64 loss sums, and `train` upcasts the weights of the model it returns
to float64, so prediction, input gradients and checkpoints run in float64
on float32-representable weights. Residual blocks use layer
normalization (not batch statistics), so a row's prediction and input
gradient do not depend on the rest of its batch, up to rounding: BLAS picks
its accumulation order per batch shape, so they may differ in the last bit.
The default hidden activation is softplus so gradients are smooth
everywhere; a ReLU mode is available.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, layer_norm
from .core import ParameterSpace, RandomStream, expit

__all__ = [
    "SurrogateConfig",
    "TrainingSchedule",
    "OutputNormalizer",
    "JointSurrogate",
    "InputPass",
    "epoch_budget",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

LAYER_NORM_EPS = 1e-5
ADAM_EPS = 1e-8
# a Python float, not np.log(2.0): a float64 scalar would promote float32
# arrays to float64 under numpy 2's promotion rules
LOG_2 = float(np.log(2.0))
MODES = ("o", "c", "c+o")
OBJECTIVE_LOSSES = ("mse", "huber", "log_cosh", "weighted_log_cosh", "distance_mse", "relative")


@dataclass
class SurrogateConfig:
    enabled: bool = True  # read by the engine; False runs plain NSGA-II epochs
    mode: str = "c+o"
    blocks: int = 2
    block_dim: int = 192
    hidden_multiplier: float = 2.0
    dropout: tuple[float, float] = (0.15, 0.0)
    learning_rate: float = 0.001
    batch_size: int = 2048
    folds: int = 3
    activation: str = "softplus"
    objective_loss: str = "mse"
    outlier_threshold: float | None = None
    exclude_infeasible: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.blocks < 1 or self.block_dim < 1:
            raise ValueError("blocks and block_dim must be positive")
        if self.activation not in ("softplus", "relu"):
            raise ValueError("activation must be 'softplus' or 'relu'")
        if self.objective_loss not in OBJECTIVE_LOSSES:
            raise ValueError(f"objective_loss must be one of {OBJECTIVE_LOSSES}")
        self.dropout = tuple(float(p) for p in self.dropout)
        if len(self.dropout) != 2 or not all(0.0 <= p < 1.0 for p in self.dropout):
            raise ValueError("dropout must hold two probabilities in [0, 1)")
        if self.folds < 2 or self.batch_size < 1 or self.hidden_dim < 1:
            raise ValueError("need folds >= 2, batch_size >= 1, hidden_multiplier * block_dim >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.outlier_threshold is not None:
            self.outlier_threshold = float(self.outlier_threshold)

    @property
    def hidden_dim(self) -> int:
        return int(self.hidden_multiplier * self.block_dim)


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
    all rows. Empty fold lists mean no fold ran in this fit: ``final_epochs``
    was passed in, reused from an earlier fit of the same epoch."""

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

    def inverse_pullback(self, targets: np.ndarray):
        """(values, pullback): `inverse` with the shared rescale taken as a
        product with its reciprocal (so a value can differ from it in the
        last bit), and the map of a gradient g at the values to the one at
        the targets, g * col_span * (1 / shared_span) * exp(targets)."""
        unit, scale = np.expm1(targets), 1.0
        if self.shared_span > 0.0:
            scale = 1.0 / self.shared_span
            unit = (unit - self.shared_min) * scale
        slope = np.exp(targets)
        return unit * self.col_span + self.y_min, lambda g: g * self.col_span * scale * slope

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
        self.params: dict[str, Tensor] = {}
        self._init_weights(stream)

    # ------------------------------------------------------------------

    def _dense_init(self, rng, fan_in: int, fan_out: int, name: str) -> None:
        bound = fan_in**-0.5
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(fan_out,))
        self.params[f"{name}.w"] = Tensor(w, requires_grad=True)
        self.params[f"{name}.b"] = Tensor(b, requires_grad=True)

    def _init_weights(self, stream: RandomStream) -> None:
        rng = stream.generator()
        cfg = self.config
        n, d, h = self.space.dim, cfg.block_dim, cfg.hidden_dim
        self._dense_init(rng, n, d, "proj")
        for i in range(cfg.blocks):
            self.params[f"block{i}.ln_scale"] = Tensor(np.ones(d), requires_grad=True)
            self.params[f"block{i}.ln_shift"] = Tensor(np.zeros(d), requires_grad=True)
            self._dense_init(rng, d, h, f"block{i}.fc1")
            self._dense_init(rng, h, d, f"block{i}.fc2")
        if self.has_objective_head:
            self._dense_init(rng, d, self.q, "head_obj")
        if self.has_constraint_head:
            self._dense_init(rng, d, self.k, "head_con")

    # ------------------------------------------------------------------

    def forward(
        self,
        x: Tensor,
        train: bool = False,
        dropout_rng: np.random.Generator | None = None,
    ) -> tuple[Tensor | None, Tensor | None]:
        """Raw heads on a parameter-space tensor, recorded on the autodiff
        tape: (normalized-objective predictions, constraint logits). Dropout
        is applied only in training mode. The program runs `_forward`; this
        pass serves the tests' bit-for-bit training reference and the
        ``kernel.fwd_bwd_2x192.ms`` benchmark kernel."""
        p = self.params
        x_unit = (x - Tensor(self.space.lower)) * Tensor(1.0 / self.space.span)
        h = x_unit @ p["proj.w"] + p["proj.b"]
        p1, p2 = self.config.dropout
        softplus = self.config.activation == "softplus"
        for i in range(self.config.blocks):
            z = layer_norm(h, p[f"block{i}.ln_scale"], p[f"block{i}.ln_shift"], LAYER_NORM_EPS)
            u = z @ p[f"block{i}.fc1.w"] + p[f"block{i}.fc1.b"]
            a = self._dropout(u.softplus() if softplus else u.relu(), p1, train, dropout_rng)
            o = a @ p[f"block{i}.fc2.w"] + p[f"block{i}.fc2.b"]
            o = self._dropout(o, p2, train, dropout_rng)
            h = h + o
        y_out = h @ p["head_obj.w"] + p["head_obj.b"] if self.has_objective_head else None
        c_out = h @ p["head_con.w"] + p["head_con.b"] if self.has_constraint_head else None
        return y_out, c_out

    @staticmethod
    def _dropout(t: Tensor, p: float, train: bool, rng) -> Tensor:
        if not train or p <= 0.0:
            return t
        mask = (rng.random(t.data.shape) >= p) / (1.0 - p)
        return t * Tensor(mask)

    # ------------------------------------------------------------------
    # explicit passes (training and batch prediction)
    # ------------------------------------------------------------------

    def _unit(self, x: np.ndarray) -> np.ndarray:
        """Parameter-space rows mapped into the unit box, by the same array
        operations as the first line of `forward`. Training, prediction and
        the descent distance target all use this one map."""
        return (x - self.space.lower) * (1.0 / self.space.span)

    def _forward(self, x_unit: np.ndarray, dropout_rng: np.random.Generator | None = None):
        """Explicit forward pass on unit-box rows (see `_unit`).

        Returns (normalized-objective predictions, constraint logits, cache);
        the cache holds the activations `_backward` needs. A dropout
        generator switches on training-mode dropout, drawing the same masks
        in the same order as `forward`. Means are sums divided by the count,
        as ``ndarray.mean`` computes them.
        """
        p = self.params
        softplus = self.config.activation == "softplus"
        p1, p2 = self.config.dropout if dropout_rng is not None else (0.0, 0.0)
        d = self.config.block_dim
        h = x_unit @ p["proj.w"].data + p["proj.b"].data
        blocks = []
        for i in range(self.config.blocks):
            centered = h - np.add.reduce(h, axis=1, keepdims=True) / d
            var = np.add.reduce(centered * centered, axis=1, keepdims=True) / d
            sigma = np.sqrt(var + LAYER_NORM_EPS)
            x_hat = centered / sigma
            z = x_hat * p[f"block{i}.ln_scale"].data + p[f"block{i}.ln_shift"].data
            u = z @ p[f"block{i}.fc1.w"].data + p[f"block{i}.fc1.b"].data
            e = None
            if softplus:
                e = np.exp(-np.abs(u))
                a = np.maximum(u, 0.0) + np.log1p(e)
            else:
                a = u * (u > 0.0)
            mask1 = mask2 = None
            if p1 > 0.0:
                mask1 = np.divide(dropout_rng.random(a.shape) >= p1, 1.0 - p1, dtype=a.dtype)
                a = a * mask1
            o = a @ p[f"block{i}.fc2.w"].data + p[f"block{i}.fc2.b"].data
            if p2 > 0.0:
                mask2 = np.divide(dropout_rng.random(o.shape) >= p2, 1.0 - p2, dtype=o.dtype)
                o = o * mask2
            blocks.append((x_hat, sigma, z, u, e, mask1, a, mask2))
            h = h + o
        y_out = c_out = None
        if self.has_objective_head:
            y_out = h @ p["head_obj.w"].data + p["head_obj.b"].data
        if self.has_constraint_head:
            c_out = h @ p["head_con.w"].data + p["head_con.b"].data
        return y_out, c_out, (x_unit, blocks, h)

    def _backward(self, cache, dy, dc, grads: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Explicit backward pass: given the output gradients ``dy`` and
        ``dc`` of the heads the loss uses (None for a head it does not),
        writes the gradient of the loss with respect to every parameter into
        ``grads`` (arrays keyed like ``params``) and returns the gradient with
        respect to the output of the input projection. Without ``grads`` it
        computes only that returned gradient, as input gradients need."""
        p = self.params
        softplus = self.config.activation == "softplus"
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
            dh_head = g @ p[f"{head}.w"].data.T
            dh = dh_head if dh is None else dh + dh_head
        for i in reversed(range(self.config.blocks)):
            x_hat, sigma, z, u, e, mask1, a, mask2 = blocks[i]
            g = dh if mask2 is None else dh * mask2
            dense(f"block{i}.fc2", a, g)
            g = g @ p[f"block{i}.fc2.w"].data.T
            if mask1 is not None:
                g = g * mask1
            # softplus' = expit(u), from the forward's exp(-|u|) by the
            # operations of `core.expit`
            g = g * (np.where(u >= 0, 1.0, e) / (1.0 + e)) if softplus else g * (u > 0.0)
            dense(f"block{i}.fc1", z, g)
            g = g @ p[f"block{i}.fc1.w"].data.T
            if grads is not None:
                np.add.reduce(g * x_hat, axis=0, out=grads[f"block{i}.ln_scale"])
                np.add.reduce(g, axis=0, out=grads[f"block{i}.ln_shift"])
            gx = g * p[f"block{i}.ln_scale"].data
            mean_gx = np.add.reduce(gx, axis=1, keepdims=True) / d
            mean_gx_xhat = np.add.reduce(gx * x_hat, axis=1, keepdims=True) / d
            dh = dh + (gx - mean_gx - x_hat * mean_gx_xhat) / sigma
        dense("proj", x_unit, dh)
        return dh

    def _flat_parameters(self) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Copy the weights into one flat vector and rebind every ``params``
        tensor as a view into it. Returns (parameters, gradient, gradient
        views keyed like ``params``); the gradient vector has the same
        layout and dtype as the parameter vector, which has the weights'
        dtype (float32 while `_train_single` runs)."""
        flat = np.concatenate([t.data.ravel() for t in self.params.values()])
        grad = np.zeros_like(flat)
        grads = {}
        start = 0
        for name, t in self.params.items():
            stop = start + t.data.size
            shape = t.data.shape
            t.data = flat[start:stop].reshape(shape)
            grads[name] = grad[start:stop].reshape(shape)
            start = stop
        return flat, grad, grads

    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Denormalized objective predictions and constraint probabilities."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y_out, c_out, _ = self._forward(self._unit(x))
        return self._predictions(y_out, c_out)

    def _predictions(self, y_out, c_out):
        y_pred = None
        if y_out is not None:
            y_pred = self.out_norm.inverse(y_out) if self.out_norm else y_out
        c_pred = expit(c_out) if c_out is not None else None
        return y_pred, c_pred

    # ------------------------------------------------------------------

    def weight_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.params.items()}

    def load_weight_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            t.data = np.asarray(arrays[name], dtype=np.float64)


class InputPass:
    """One explicit forward pass on parameter-space rows, kept for any
    number of input gradients. ``y`` holds the denormalized objectives and
    ``c_logits`` the constraint logits (None for an absent head), ``x_unit``
    the rows in the unit box."""

    def __init__(self, model: JointSurrogate, x: np.ndarray):
        self.model = model
        self.x_unit = model._unit(np.atleast_2d(np.asarray(x, dtype=float)))
        self.y_out, self.c_logits, self._cache = model._forward(self.x_unit)
        self.y, self._pullback = self.y_out, None
        if self.y_out is not None and model.out_norm is not None:
            self.y, self._pullback = model.out_norm.inverse_pullback(self.y_out)

    def predictions(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """What `JointSurrogate.predict` returns for the same rows."""
        return self.model._predictions(self.y_out, self.c_logits)

    def gradient(self, dy: np.ndarray | None = None, dc: np.ndarray | None = None) -> np.ndarray:
        """Gradient with respect to the rows of a scalar whose gradients
        with respect to ``y`` and ``c_logits`` are ``dy`` and ``dc``."""
        if dy is not None and self._pullback is not None:
            dy = self._pullback(dy)
        dh = self.model._backward(self._cache, dy, dc)
        return (dh @ self.model.params["proj.w"].data.T) * (1.0 / self.model.space.span)


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


class Adam:
    """Adam over one flat parameter vector, updated in place.

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


def _objective_loss(pred: np.ndarray, targets: np.ndarray, kind: str, grad: bool):
    """Mean objective loss over all entries and, when ``grad`` is set, its
    gradient with respect to ``pred`` in closed form (else None)."""
    r = pred - targets
    inv = 1.0 / r.size
    if kind in ("mse", "distance_mse"):
        w = 1.0 / (1.0 + np.abs(targets)) if kind == "distance_mse" else None
        sq = r * r
        value = (sq if w is None else sq * w).sum(dtype=np.float64) * inv
        if not grad:
            return value, None
        g = (inv if w is None else inv * w) * r
        return value, g + g
    a = np.abs(r)
    if kind == "huber":
        # quadratic within |r| <= 1, linear outside
        mask = (a <= 1.0).astype(r.dtype)
        value = (r * r * 0.5 * mask + (a - 0.5) * (1.0 - mask)).sum(dtype=np.float64) * inv
        if not grad:
            return value, None
        g = inv * mask * 0.5 * r
        return value, (g + g) + inv * (1.0 - mask) * np.sign(r)
    if kind in ("log_cosh", "weighted_log_cosh"):
        w = 1.0 / (np.abs(targets) + 1.0) if kind == "weighted_log_cosh" else None
        e = np.exp(a * -2.0)
        log_cosh = a + np.log1p(e) - LOG_2
        value = (log_cosh if w is None else log_cosh * w).sum(dtype=np.float64) * inv
        if not grad:
            return value, None
        g = inv if w is None else inv * w
        return value, (g + g / (1.0 + e) * e * -2.0) * np.sign(r)
    if kind == "relative":
        w = 1.0 / (np.abs(targets) + 1e-12)
        value = (a * w).sum(dtype=np.float64) * inv
        return value, (inv * w * np.sign(r) if grad else None)
    raise ValueError(f"unknown objective loss {kind!r}")


def _composite_loss(y_out, c_out, y_targets, c_targets, kind: str, grad: bool):
    """Objective loss plus mean BCE on the constraint logits, for the heads
    that exist. Returns (loss, d loss / d y_out, d loss / d c_out); the
    gradients are None where a head is absent or ``grad`` is unset."""
    value = None
    dy = dc = None
    if y_out is not None:
        value, dy = _objective_loss(y_out, y_targets, kind, grad)
    if c_out is not None:
        inv = 1.0 / c_out.size
        bce = np.maximum(c_out, 0.0) - c_out * c_targets + np.log1p(np.exp(-np.abs(c_out)))
        bce_value = bce.sum(dtype=np.float64) * inv
        value = bce_value if value is None else value + bce_value
        if grad:
            dc = inv * (expit(c_out) - c_targets)
    return float(value), dy, dc


def _filter_training_data(x, y, c, cfg: SurrogateConfig):
    if cfg.exclude_infeasible and c.shape[1] > 0:
        keep = c.sum(axis=1) > 0.0  # drop samples violating every constraint
        x, y, c = x[keep], y[keep], c[keep]
    if cfg.outlier_threshold is not None and y.shape[0] > 1:
        logged = np.log1p(np.maximum(y, -1.0 + 1e-12))
        std = logged.std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        z = (logged - logged.mean(axis=0)) / std
        keep = np.all(np.abs(z) <= cfg.outlier_threshold, axis=1)
        x, y, c = x[keep], y[keep], c[keep]
    return x, y, c


def _train_step(model, opt, grads, x_unit, y_t, c_t, rng) -> float:
    """One forward/backward pass and Adam step on a batch of unit-box rows;
    returns the batch loss. A non-finite loss leaves the weights untouched."""
    y_out, c_out, cache = model._forward(x_unit, rng)
    kind = model.config.objective_loss
    value, dy, dc = _composite_loss(y_out, c_out, y_t, c_t, kind, grad=True)
    if np.isfinite(value):
        model._backward(cache, dy, dc, grads)
        opt.step()
    return value


def _epoch_pass(model, opt, grads, x_unit, y_t, c_t, batch_size, rng) -> float:
    n = x_unit.shape[0]
    batches = [slice(None)]  # one batch trains on views, not copies
    if n > batch_size:
        order = rng.permutation(n)
        batches = [order[start : start + batch_size] for start in range(0, n, batch_size)]
    total = 0.0
    for idx in batches:
        bx = x_unit[idx]
        value = _train_step(model, opt, grads, bx, y_t[idx], c_t[idx], rng)
        if not np.isfinite(value):
            return value
        total += value * bx.shape[0]
    return total / n


def _train_single(model, x, y_targets, c_targets, epochs, cfg, rng, val=None, patience=None):
    """Train up to ``epochs`` epochs; returns the epoch count actually run
    and the epoch of the last validation improvement (0 without one).

    Training runs in float32: weights, gradients, Adam moments, activations,
    unit-box inputs and targets. Loss sums are float64, so early stopping
    compares float64 values. The weights stay float32 on return; `train`
    upcasts the model it returns.

    With a validation split, early stopping monitors the validation loss at
    the given patience; weights are never restored to the best epoch, whose
    count `train` uses for the final fit. A non-finite loss aborts at the
    current epoch.
    """
    f32 = np.float32
    for t in model.params.values():
        t.data = t.data.astype(f32)
    x_unit = model._unit(x).astype(f32)
    y_targets, c_targets = y_targets.astype(f32), c_targets.astype(f32)
    flat, grad, grads = model._flat_parameters()
    opt = Adam(flat, grad, cfg.learning_rate)
    if val is not None:
        vx, vy, vc = val
        vx_unit, vy, vc = model._unit(vx).astype(f32), vy.astype(f32), vc.astype(f32)
    best_val = np.inf
    best = since_best = 0
    for done in range(epochs):
        train_loss = _epoch_pass(
            model, opt, grads, x_unit, y_targets, c_targets, cfg.batch_size, rng
        )
        if not np.isfinite(train_loss):
            return done, best
        if val is not None:
            y_out, c_out, _ = model._forward(vx_unit)
            vloss, _, _ = _composite_loss(
                y_out, c_out, vy, vc, cfg.objective_loss, grad=False
            )
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


def train(
    x: np.ndarray,
    y: np.ndarray,
    c: np.ndarray,
    space: ParameterSpace,
    config: SurrogateConfig,
    stream: RandomStream,
    final_epochs: int | None = None,
) -> tuple[JointSurrogate, TrainingSchedule]:
    """Fit the joint surrogate on NaN-free evaluated rows: parameters ``x``,
    objectives ``y`` and constraint flags ``c`` (0/1), one row per
    evaluation, as `RunHistory.viable_arrays` returns them.

    Without ``final_epochs`` the epoch count is chosen by K-fold
    cross-validation: each fold trains with early stopping on its validation
    loss, the epochs of the folds' last validation improvements are
    averaged, and the returned model is retrained from scratch on all data
    for that mean count, not for the later epochs at which patience stopped
    the folds. Given ``final_epochs``, no fold runs: the final model trains
    for that many epochs, from the same ``stream`` draws as after the folds,
    and the schedule's fold lists are empty. The engine cross-validates once
    per dynamic-sampling epoch and passes the count on to the epoch's later
    fits.

    Every fit, fold or final, trains in float32 with float64 loss sums (see
    `_train_single`); the returned model's weights are float64, each one a
    float32 value.
    """
    if final_epochs is not None and final_epochs < 1:
        raise ValueError(f"final_epochs must be at least 1, got {final_epochs}")
    x, y, c = _filter_training_data(x, y, c, config)
    n = x.shape[0]
    if n < 2 * config.folds:
        raise ValueError(
            f"need at least {2 * config.folds} NaN-free records, got {n}"
        )
    q = y.shape[1]
    k = c.shape[1]
    e_max, patience = epoch_budget(n)

    fold_chunks = np.array_split(np.arange(n), config.folds) if final_epochs is None else []
    stops: list[int] = []
    bests: list[int] = []
    for f, val_idx in enumerate(fold_chunks):
        train_idx = np.setdiff1d(np.arange(n), val_idx)
        fold_stream = stream.child(f"fold{f}")
        model = JointSurrogate(space, q, k, config, fold_stream.child("init"))
        norm = OutputNormalizer.fit(y[train_idx]) if model.has_objective_head else None
        y_tr = norm.transform(y[train_idx]) if norm else np.zeros((len(train_idx), 0))
        y_va = norm.transform(y[val_idx]) if norm else np.zeros((len(val_idx), 0))
        stop, best = _train_single(
            model,
            x[train_idx],
            y_tr,
            c[train_idx],
            e_max,
            config,
            fold_stream.child("epochs").generator(),
            val=(x[val_idx], y_va, c[val_idx]),
            patience=patience,
        )
        stops.append(max(stop, 1))
        bests.append(best)

    if final_epochs is None:
        final_epochs = max(1, int(round(float(np.mean(bests)))))
    final_stream = stream.child("final")
    model = JointSurrogate(space, q, k, config, final_stream.child("init"))
    norm = OutputNormalizer.fit(y) if model.has_objective_head else None
    model.out_norm = norm
    y_all = norm.transform(y) if norm else np.zeros((n, 0))
    _train_single(
        model,
        x,
        y_all,
        c,
        final_epochs,
        config,
        final_stream.child("epochs").generator(),
    )
    model.load_weight_arrays(model.weight_arrays())  # float64 for inference
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
    arrays = {f"w::{name}": data for name, data in model.weight_arrays().items()}
    arrays["space_lower"] = model.space.lower
    arrays["space_upper"] = model.space.upper
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> JointSurrogate:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        cfg_dict = dict(meta["config"])
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
