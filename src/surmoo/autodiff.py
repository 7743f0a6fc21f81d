"""Minimal reverse-mode automatic differentiation over numpy arrays, and
the surrogate's forward pass recorded on it (`surrogate_forward`).

No run imports this module: the program runs the surrogate's explicit
passes. The tape serves the tests' bit-for-bit reference for those passes
and the benchmark kernel ``kernel.fwd_bwd_2x192.ms``. Arrays are float64
throughout so gradients agree tightly with central finite differences.

A Tensor whose ``requires_grad`` is False is treated as a constant: no
backward closure is recorded for it, so inference-only graphs cost a plain
numpy forward pass.
"""

from __future__ import annotations

import numpy as np

from .core import expit
from .surrogate import LAYER_NORM_EPS

__all__ = [
    "Tensor",
    "bce_with_logits",
    "layer_norm",
    "surrogate_forward",
]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Backpropagate from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return self._make(out_data, (self, other), backward)

    def __sub__(self, other):
        other = self._lift(other)
        out_data = self.data - other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(-g)

        return self._make(out_data, (self, other), backward)

    def __mul__(self, other):
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------

    def softplus(self):
        out_data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))

        def backward(g):
            self._accumulate(g * expit(self.data))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise binary cross-entropy on logits, numerically stable.

    ``targets`` is a constant 0/1 array. Returns the per-entry loss; reduce
    with ``.mean()`` as needed.
    """
    targets = np.asarray(targets, dtype=np.float64)
    z = logits.data
    out_data = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        logits._accumulate(g * (expit(z) - targets))

    return Tensor._make(out_data, (logits,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer normalization with affine parameters, fused into one
    node (this sits in the training hot loop)."""
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    sigma = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + eps)
    x_hat = centered / sigma
    out_data = x_hat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * x_hat).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            mean_gx = gx.mean(axis=1, keepdims=True)
            mean_gx_xhat = (gx * x_hat).mean(axis=1, keepdims=True)
            x._accumulate((gx - mean_gx - x_hat * mean_gx_xhat) / sigma)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def surrogate_forward(model, params, x, train=False, dropout_rng=None):
    """`JointSurrogate._forward`'s operations recorded on the tape, on a
    parameter-space tensor ``x`` with the caller's leaf tensors ``params``
    (keyed like ``model.params``) as the weights: (normalized-objective
    predictions, constraint logits), None for an absent head. Dropout
    applies only in training mode."""
    p, cfg = params, model.config
    x_unit = (x - Tensor(model.space.lower)) * Tensor(1.0 / model.space.span)
    h = x_unit @ p["proj.w"] + p["proj.b"]
    p1, p2 = cfg.dropout
    for i in range(cfg.blocks):
        z = layer_norm(h, p[f"block{i}.ln_scale"], p[f"block{i}.ln_shift"], LAYER_NORM_EPS)
        u = z @ p[f"block{i}.fc1.w"] + p[f"block{i}.fc1.b"]
        a = _dropout(u.softplus(), p1, train, dropout_rng)
        o = a @ p[f"block{i}.fc2.w"] + p[f"block{i}.fc2.b"]
        h = h + _dropout(o, p2, train, dropout_rng)
    y_out = h @ p["head_obj.w"] + p["head_obj.b"] if model.has_objective_head else None
    c_out = h @ p["head_con.w"] + p["head_con.b"] if model.has_constraint_head else None
    return y_out, c_out


def _dropout(t: Tensor, p: float, train: bool, rng) -> Tensor:
    if not train or p <= 0.0:
        return t
    mask = (rng.random(t.data.shape) >= p) / (1.0 - p)
    return t * Tensor(mask)
