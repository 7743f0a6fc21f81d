import numpy as np
import pytest

from surmoo.core import ParameterSpace, RandomStream
from surmoo.sensitivity import (
    compute_elasticities,
    indices_from_sensitivity,
    invert_indices,
)
from surmoo.surrogate import JointSurrogate, OutputNormalizer, SurrogateConfig

from test_surrogate import affine_model


def linear_model(space, slope_per_input):
    """Raw objective head exactly sum_j slope_j * x_j (true coordinates)."""
    n = space.dim
    w = np.diag(np.asarray(slope_per_input, dtype=float) * space.span)
    model = affine_model(space, w, np.zeros(n), q=n)
    # collapse to a single output summing the diagonal channels
    model.params["head_obj.w"] = np.ones((n, n)) * 0.0
    model.params["head_obj.w"][:, 0] = 1.0
    model.params["head_obj.b"] = np.zeros(n)
    model.q = 1
    model.params["head_obj.w"] = model.params["head_obj.w"][:, :1]
    model.params["head_obj.b"] = model.params["head_obj.b"][:1]
    model.out_norm = None
    # account for the input normalizer offset: y = sum slope*(x - lower)
    return model


class TestElasticities:
    def test_constant_model_all_zero(self, rng):
        space = ParameterSpace(("a", "b"), [0.0, 0.0], [1.0, 1.0])
        model = affine_model(space, np.zeros((2, 2)), [4.0, -1.0])
        model.out_norm = None
        s_bar = compute_elasticities(model, rng.random((10, 2)))
        assert np.allclose(s_bar, 0.0)

    def test_exact_linear_model(self):
        # y = 2 * x1, sampled at x1 = 3: elasticity |2 * 3| = 6
        space = ParameterSpace(("a", "b"), [0.0, 0.0], [10.0, 10.0])
        model = linear_model(space, [2.0, 0.0])
        x = np.array([[3.0, 5.0]])
        s_bar = compute_elasticities(model, x)
        assert s_bar[0] == pytest.approx(6.0, rel=1e-12)
        assert s_bar[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        space = ParameterSpace(("a", "b", "c"), [0.5, 1.0, 2.0], [2.0, 3.0, 4.0])
        cfg = SurrogateConfig(mode="o", blocks=2, block_dim=8)
        model = JointSurrogate(space, 2, 0, cfg, RandomStream(12, "sens"))
        model.out_norm = OutputNormalizer.fit(rng.uniform(0, 4, (8, 2)))
        x = space.lower + rng.random((6, 3)) * space.span

        expected = np.zeros(3)
        for k in range(2):
            for i in range(x.shape[0]):
                for j in range(3):
                    h = 1e-6 * space.span[j]
                    xp, xm = x[i].copy(), x[i].copy()
                    xp[j] += h
                    xm[j] -= h
                    fp = model.predict(xp[None])[0][0, k]
                    fm = model.predict(xm[None])[0][0, k]
                    expected[j] += abs((fp - fm) / (2 * h) * x[i, j])
        expected /= 2 * x.shape[0]

        assert np.allclose(compute_elasticities(model, x), expected, rtol=1e-3)

    def test_scaling_model_doubles_elasticity(self, rng):
        space = ParameterSpace(("a", "b"), [0.0, 0.0], [1.0, 1.0])
        cfg = SurrogateConfig(mode="o", blocks=1, block_dim=6)
        model = JointSurrogate(space, 1, 0, cfg, RandomStream(4, "scale"))
        model.out_norm = None
        x = rng.random((12, 2))
        base = compute_elasticities(model, x)
        model.params["head_obj.w"] = model.params["head_obj.w"] * 2.0
        model.params["head_obj.b"] = model.params["head_obj.b"] * 2.0
        doubled = compute_elasticities(model, x)
        assert np.allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_batching_does_not_change_result(self, rng):
        space = ParameterSpace(("a", "b"), [0.0, 0.0], [1.0, 1.0])
        cfg = SurrogateConfig(mode="o", blocks=1, block_dim=6)
        model = JointSurrogate(space, 1, 0, cfg, RandomStream(4, "scale"))
        model.out_norm = None
        x = rng.random((40, 2))
        full = compute_elasticities(model, x)
        chunked = compute_elasticities(model, x, batch_size=7)
        assert np.allclose(full, chunked, rtol=1e-12)


class TestIndexMapping:
    def test_zero_sensitivity(self):
        eta = indices_from_sensitivity(np.array([0.0]))
        assert eta[0] == 1.0

    def test_unit_sensitivity(self):
        eta = indices_from_sensitivity(np.array([1.0]))
        assert eta[0] == 21.0

    def test_large_sensitivity_clips(self):
        eta = indices_from_sensitivity(np.array([5.0]))
        assert eta[0] == 30.0

    def test_monotone_and_bounded(self, rng):
        values = np.sort(rng.uniform(0, 3, 32))
        eta = indices_from_sensitivity(values)
        assert np.all(np.diff(eta) >= 0)
        assert np.all((eta >= 1.0) & (eta <= 30.0))

    def test_argmax_preserved(self, rng):
        for _ in range(20):
            values = rng.uniform(0, 2, 6)
            eta = indices_from_sensitivity(values)
            assert eta[np.argmax(values)] == eta.max()


class TestInversion:
    def test_low_becomes_high(self):
        inv = invert_indices(np.array([1.0]))
        assert inv[0] == 20.0

    def test_high_clips_to_low(self):
        inv = invert_indices(np.array([21.0]))
        assert inv[0] == 1.0

    def test_fixed_point(self):
        inv = invert_indices(np.array([10.5]))
        assert inv[0] == 10.5
