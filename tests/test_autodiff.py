"""Gradient checks for every autodiff primitive against central differences.

The tape serves only as the reference the surrogate's explicit passes are
tested against, so it holds just the operations that reference uses."""

import numpy as np
import pytest

from surmoo.autodiff import Tensor, bce_with_logits


def fd_gradient(fn, x0, h=1e-6):
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    for i in range(x0.size):
        plus = x0.copy()
        plus.ravel()[i] += h
        minus = x0.copy()
        minus.ravel()[i] -= h
        flat[i] = (float(fn(Tensor(plus)).data) - float(fn(Tensor(minus)).data)) / (2 * h)
    return grad


def check(fn, x0, tol=1e-6):
    leaf = Tensor(x0.copy(), requires_grad=True)
    out = fn(leaf)
    out.backward()
    expected = fd_gradient(fn, x0)
    scale = max(1.0, np.abs(expected).max())
    assert np.allclose(leaf.grad, expected, atol=tol * scale), (
        f"max err {np.abs(leaf.grad - expected).max()}"
    )


@pytest.fixture
def x0(rng):
    return rng.normal(size=(5, 3))


W = np.random.default_rng(1).normal(size=(3, 4))
TARGETS = (np.random.default_rng(2).random((5, 3)) > 0.5).astype(float)

def square(t):
    return t * t


CASES = {
    "add_mul": lambda x: ((x * 2.0 + 1.0) * x).sum(),
    "matmul": lambda x: square(x @ W).sum(),
    "exp_log": lambda x: (x.exp() + 2.0).log1p().sum(),
    "log1p_expm1": lambda x: (x.exp() - 1.0).abs().log1p().sum(),
    "softplus": lambda x: x.softplus().sum(),
    "relu_sq": lambda x: square((x - 0.1).relu()).sum(),
    "mean_axis": lambda x: square(x.mean(axis=0)).sum(),
    "sum_keepdims": lambda x: square(x - x.sum(axis=1, keepdims=True)).mean(),
    "bce": lambda x: bce_with_logits(x, TARGETS).mean(),
    "broadcast_row": lambda x: (x + Tensor(np.arange(3.0))).sum(),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradients_match_finite_differences(name, x0):
    check(CASES[name], x0)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_constant_graphs_record_no_backward():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = (a @ b).softplus().sum()
    assert not out.requires_grad
    assert out._backward is None


def test_grad_accumulates_through_shared_nodes():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.sum().backward()
    assert np.allclose(x.grad, [7.0])


def test_bce_matches_direct_formula():
    z = np.array([[0.7, -1.2]])
    t = np.array([[1.0, 0.0]])
    out = bce_with_logits(Tensor(z), t).data
    p = 1.0 / (1.0 + np.exp(-z))
    expected = -(t * np.log(p) + (1 - t) * np.log(1 - p))
    assert np.allclose(out, expected)
