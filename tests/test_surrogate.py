import itertools

import numpy as np
import pytest

from surmoo import surrogate
from surmoo.autodiff import Tensor, bce_with_logits, surrogate_forward
from surmoo.core import EvaluationRecord, ParameterSpace, RandomStream, RunHistory
from surmoo.surrogate import (
    ADAM_EPS,
    OBJECTIVE_LOSSES,
    InputPass,
    JointSurrogate,
    OutputNormalizer,
    SurrogateConfig,
    TrainingSchedule,
    epoch_budget,
    load_checkpoint,
    save_checkpoint,
    train,
)


def unit_space(n=2):
    return ParameterSpace(tuple(f"x{i}" for i in range(n)), np.zeros(n), np.ones(n))


def rows_from(x, y, c=None):
    """The training rows of a history holding one record per row of ``x``:
    `RunHistory.viable_arrays`, so NaN rows are dropped as in a run."""
    history = RunHistory()
    for i in range(x.shape[0]):
        flags = c[i] if c is not None else np.empty(0, dtype=np.int8)
        history.append(EvaluationRecord(x[i], np.atleast_1d(y[i]), flags, 0, "init"))
    return history.viable_arrays()


def affine_model(space, w_combined, bias, q=None, k=0, mode="o"):
    """A surrogate whose blocks are zeroed so the raw objective head is
    exactly unit_x @ w_combined + bias."""
    q = w_combined.shape[1] if q is None else q
    cfg = SurrogateConfig(mode=mode, blocks=1, block_dim=w_combined.shape[1], batch_size=64)
    model = JointSurrogate(space, q, k, cfg, RandomStream(0, "affine"))
    d = cfg.block_dim
    for i in range(cfg.blocks):
        model.params[f"block{i}.fc2.w"] = np.zeros_like(model.params[f"block{i}.fc2.w"])
        model.params[f"block{i}.fc2.b"] = np.zeros_like(model.params[f"block{i}.fc2.b"])
    model.params["proj.w"] = w_combined.astype(float)
    model.params["proj.b"] = np.zeros(d)
    if model.has_objective_head:
        model.params["head_obj.w"] = np.eye(d, model.q)
        model.params["head_obj.b"] = np.atleast_1d(np.asarray(bias, dtype=float))
    return model


def unit_map(space):
    """The model's parameter-to-unit-box map for ``space``."""
    cfg = SurrogateConfig(mode="o", blocks=1, block_dim=4)
    return JointSurrogate(space, 1, 0, cfg, RandomStream(0, "unit"))._unit


class TestInputNormalization:
    def test_lower_maps_to_zero(self):
        space = ParameterSpace(("a", "b"), [1.0, -2.0], [3.0, 2.0])
        assert np.allclose(unit_map(space)(space.lower), [0.0, 0.0])

    def test_upper_maps_to_one(self):
        space = ParameterSpace(("a", "b"), [1.0, -2.0], [3.0, 2.0])
        assert np.allclose(unit_map(space)(space.upper), [1.0, 1.0])

    def test_quarter_point(self):
        space = ParameterSpace(("a",), [0.0], [4.0])
        assert unit_map(space)(np.array([1.0]))[0] == pytest.approx(0.25)


class TestOutputNormalizer:
    def test_binary_targets_log1p(self):
        norm = OutputNormalizer.fit(np.array([[0.0], [1.0]]))
        targets = norm.transform(np.array([[0.0], [1.0]]))
        assert np.allclose(targets.ravel(), [0.0, np.log1p(1.0)])

    def test_column_minimum_maps_to_zero_before_rescale(self):
        y = np.array([[2.0, 5.0], [4.0, 9.0], [3.0, 7.0]])
        norm = OutputNormalizer.fit(y)
        unit_of_min = (y.min(axis=0) - norm.y_min) / norm.col_span
        assert np.allclose(unit_of_min, 0.0)
        targets = norm.transform(y.min(axis=0)[None, :])
        assert np.allclose(targets, np.log1p(norm.shared_min))

    def test_round_trip_identity_in_range(self, rng):
        for _ in range(25):
            y = rng.uniform(0.0, 50.0, size=(rng.integers(2, 40), rng.integers(1, 5)))
            norm = OutputNormalizer.fit(y)
            back = norm.inverse(norm.transform(y))
            assert np.allclose(back, y, atol=1e-9)

    def test_out_of_range_values_clip_on_round_trip(self):
        norm = OutputNormalizer.fit(np.array([[1.0], [3.0]]))
        back = norm.inverse(norm.transform(np.array([[0.0], [10.0]])))
        assert np.allclose(back.ravel(), [1.0, 3.0])

    def test_degenerate_column(self):
        y = np.array([[5.0, 1.0], [5.0, 2.0]])
        norm = OutputNormalizer.fit(y)
        targets = norm.transform(y)
        back = norm.inverse(targets)
        assert np.allclose(back[:, 0], 5.0)
        assert np.allclose(back[:, 1], [1.0, 2.0])

    @pytest.mark.parametrize(
        "y_min, y_max",
        [([0.0, 1.0, 2.0], [10.0, 4.0, 7.0]), ([3.0, 1.0], [3.0, 9.0]), ([7.0, 0.0], [7.0, 3.0])],
        ids=["plain", "degenerate_column", "zero_shared_span"],
    )
    def test_inverse_pullback_matches_inverse_and_finite_differences(self, rng, y_min, y_max):
        norm = OutputNormalizer(np.array(y_min), np.array(y_max))
        t = rng.uniform(0.0, 2.5, size=(6, len(y_min)))
        values, pullback = norm.inverse_pullback(t)
        assert np.allclose(values, norm.inverse(t), rtol=1e-14, atol=0.0)
        g = rng.normal(size=t.shape)
        h = 1e-6
        fd = (norm.inverse(t + h) - norm.inverse(t - h)) / (2 * h) * g
        assert np.allclose(pullback(g), fd, rtol=1e-6, atol=1e-9)


class TestEpochBudget:
    def test_ten_thousand_samples(self):
        assert epoch_budget(10**4) == (10_000, 250)

    def test_ten_million_samples(self):
        assert epoch_budget(10**7) == (25, 25)

    def test_thousand_samples(self):
        assert epoch_budget(10**3) == (10_000, 250)


class TestTraining:
    def test_constant_target_learned_everywhere(self, rng):
        space = unit_space(2)
        x = rng.random((40, 2))
        y = np.full((40, 1), 3.0)
        cfg = SurrogateConfig(mode="o", blocks=1, block_dim=16, batch_size=64)
        model, _ = train(*rows_from(x, y), space, cfg, RandomStream(5, "t"))
        grid = np.stack(
            np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7)), axis=-1
        ).reshape(-1, 2)
        pred, _ = model.predict(grid)
        assert np.allclose(pred, 3.0, atol=1e-2)

    def test_too_few_records_rejected(self, rng):
        space = unit_space(2)
        x = rng.random((4, 2))
        y = rng.random((4, 1))
        cfg = SurrogateConfig(mode="o", folds=3)
        with pytest.raises(ValueError, match="at least 6"):
            train(*rows_from(x, y), space, cfg, RandomStream(0))

    def test_nan_records_filtered(self, rng):
        space = unit_space(2)
        x = rng.random((20, 2))
        y = np.full((20, 1), 2.0)
        y[::4] = np.nan
        cfg = SurrogateConfig(mode="o", blocks=1, block_dim=8, batch_size=64)
        model, _ = train(*rows_from(x, y), space, cfg, RandomStream(1))
        pred, _ = model.predict(x[:3])
        assert np.all(np.isfinite(pred))

    def test_deterministic_under_fixed_stream(self, rng):
        space = unit_space(2)
        x = rng.random((18, 2))
        y = (x.sum(axis=1, keepdims=True)) ** 2
        cfg = SurrogateConfig(mode="o", blocks=1, block_dim=8, batch_size=64)
        preds = []
        for _ in range(2):
            model, schedule = train(*rows_from(x, y), space, cfg, RandomStream(3, "fix"))
            preds.append(model.predict(x[:5])[0])
        assert np.array_equal(preds[0], preds[1])

    def test_joint_mode_trains_both_heads(self, rng):
        space = unit_space(2)
        x = rng.random((30, 2))
        y = x.sum(axis=1, keepdims=True)
        c = (x[:, :1] > 0.3).astype(np.int8)
        c = np.hstack([c, (x[:, 1:] > 0.6).astype(np.int8)])
        cfg = SurrogateConfig(mode="c+o", blocks=1, block_dim=12, batch_size=64)
        model, _ = train(*rows_from(x, y, c), space, cfg, RandomStream(9))
        y_pred, c_pred = model.predict(x)
        assert y_pred.shape == (30, 1)
        assert c_pred.shape == (30, 2)
        assert np.all((c_pred > 0.0) & (c_pred < 1.0))

    def test_schedule_reports_fold_stops(self, rng):
        space = unit_space(2)
        x = rng.random((12, 2))
        y = x[:, :1]
        cfg = SurrogateConfig(mode="o", blocks=1, block_dim=8, batch_size=64)
        _, schedule = train(*rows_from(x, y), space, cfg, RandomStream(2))
        assert len(schedule.fold_stop_epochs) == cfg.folds
        assert len(schedule.fold_best_epochs) == cfg.folds
        assert schedule.e_max == 10_000 and schedule.patience == 250
        expected = int(round(float(np.mean(schedule.fold_best_epochs))))
        assert schedule.final_epochs == max(1, expected)
        # no loss here is non-finite, so a fold that ended before e_max was
        # stopped by patience, `patience` epochs after its best
        pairs = zip(schedule.fold_stop_epochs, schedule.fold_best_epochs)
        stopped = [(stop, best) for stop, best in pairs if stop < schedule.e_max]
        assert stopped
        assert all(stop - best == schedule.patience for stop, best in stopped)

    def test_fold_stopped_by_non_finite_validation_loss_reports_best_before_it(
        self, rng, monkeypatch
    ):
        # each fold's validation loss falls for three epochs, rises, then is
        # NaN: the fold stops after epoch 5, and its best epoch is 3
        script = iter([3.0, 2.0, 1.0, 1.5, np.nan] * 3)
        composite = surrogate._composite_loss

        def scripted(y_out, c_out, y_targets, c_targets, kind, grad):
            value, dy, dc = composite(y_out, c_out, y_targets, c_targets, kind, grad)
            return (value if grad else next(script)), dy, dc

        monkeypatch.setattr(surrogate, "_composite_loss", scripted)
        x = rng.random((12, 2))
        cfg = SurrogateConfig(mode="o", blocks=1, block_dim=8, batch_size=64)
        _, schedule = train(*rows_from(x, x[:, :1]), unit_space(2), cfg, RandomStream(2))
        assert schedule.fold_stop_epochs == [5, 5, 5]
        assert schedule.fold_best_epochs == [3, 3, 3]
        assert schedule.final_epochs == 3

    def test_given_final_epochs_skips_the_folds_only(self, rng, monkeypatch):
        space = unit_space(2)
        x = rng.random((24, 2))
        y = np.hstack([x.sum(axis=1, keepdims=True), x[:, :1] * 3.0])
        c = (x[:, :1] > 0.4).astype(np.int8)
        cfg = SurrogateConfig(mode="c+o", blocks=1, block_dim=8, learning_rate=0.05)
        rows = rows_from(x, y, c)
        full, schedule = train(*rows, space, cfg, RandomStream(4, "reuse"))
        assert len(schedule.fold_stop_epochs) == cfg.folds

        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("val"))
            return single(*args, **kwargs)

        single = surrogate._train_single
        monkeypatch.setattr(surrogate, "_train_single", spy)
        reused, reused_schedule = train(
            *rows, space, cfg, RandomStream(4, "reuse"), final_epochs=schedule.final_epochs
        )
        assert calls == [None]  # one unvalidated fit: the final model
        assert reused_schedule == TrainingSchedule(
            schedule.e_max, schedule.patience, [], [], schedule.final_epochs
        )
        assert reused.out_norm.state() == full.out_norm.state()
        assert full.params.keys() == reused.params.keys()
        for name, w in full.params.items():
            assert np.array_equal(reused.params[name], w), name

    def test_each_fit_normalizes_with_its_own_training_rows(self, rng, monkeypatch):
        # a fold's normalizer sees its training rows only, never its
        # validation rows; the final fit's sees every row
        x = rng.random((15, 2))
        y = np.column_stack([np.exp(3.0 * x[:, 0]), x.sum(axis=1) * 10.0 - 4.0])
        c = (x[:, 1:] > 0.5).astype(np.int8)
        x, y, c = rows_from(x, y, c)
        calls = []

        def spy(model, x_fit, y_targets, c_targets, *rest, val=None, patience=None):
            calls.append((x_fit, y_targets, c_targets, val))
            return 1, 1  # the weights are not under test

        monkeypatch.setattr(surrogate, "_train_single", spy)
        cfg = SurrogateConfig(mode="c+o", blocks=1, block_dim=4)
        train(x, y, c, unit_space(2), cfg, RandomStream(6))
        *folds, final = calls
        all_rows = np.arange(x.shape[0])
        norm_all = OutputNormalizer.fit(y)
        val_chunks = np.array_split(all_rows, cfg.folds)
        assert len(folds) == cfg.folds
        differs = []
        for (fx, fy, fc, (vx, vy, vc)), val_rows in zip(folds, val_chunks):
            rows = np.setdiff1d(all_rows, val_rows)
            norm = OutputNormalizer.fit(y[rows])
            assert np.array_equal(fx, x[rows]) and np.array_equal(fc, c[rows])
            assert np.array_equal(fy, norm.transform(y[rows]))
            assert np.array_equal(vx, x[val_rows]) and np.array_equal(vc, c[val_rows])
            assert np.array_equal(vy, norm.transform(y[val_rows]))
            differs.append(not np.array_equal(fy, norm_all.transform(y[rows])))
        # some fold holds out an extreme of y, so its targets tell the two
        # normalizers apart
        assert any(differs)
        fx, fy, fc, val = final
        assert val is None
        assert np.array_equal(fx, x) and np.array_equal(fc, c)
        assert np.array_equal(fy, norm_all.transform(y))

    def test_final_epochs_below_one_rejected(self, rng):
        x = rng.random((12, 2))
        with pytest.raises(ValueError, match="final_epochs must be at least 1"):
            train(*rows_from(x, x[:, :1]), unit_space(2), SurrogateConfig(mode="o"),
                  RandomStream(0), final_epochs=0)


class TestPrediction:
    def _trained(self, rng, mode="c+o"):
        space = unit_space(2)
        x = rng.random((24, 2))
        y = x.sum(axis=1, keepdims=True)
        c = (x[:, :1] > 0.5).astype(np.int8)
        cfg = SurrogateConfig(mode=mode, blocks=1, block_dim=8, batch_size=64)
        model, _ = train(*rows_from(x, y, c), space, cfg, RandomStream(4))
        return model

    def test_no_batch_coupling(self, rng):
        # other rows must not influence a prediction: swap a row's neighbors
        # and its value can change only by BLAS kernel rounding
        model = self._trained(rng)
        pts = rng.random((6, 2))
        perm = rng.permutation(6)
        batch_y, batch_c = model.predict(pts)
        perm_y, perm_c = model.predict(pts[perm])
        assert np.allclose(batch_y[perm], perm_y, rtol=1e-12, atol=1e-14)
        assert np.allclose(batch_c[perm], perm_c, rtol=1e-12, atol=1e-14)

    def test_batch_equals_row_by_row(self, rng):
        # BLAS kernels pick different accumulation orders per batch shape, so
        # agreement is to rounding, not bitwise
        model = self._trained(rng)
        pts = rng.random((6, 2))
        batch_y, batch_c = model.predict(pts)
        for i in range(6):
            row_y, row_c = model.predict(pts[i : i + 1])
            assert np.allclose(batch_y[i], row_y[0], rtol=1e-12, atol=1e-14)
            assert np.allclose(batch_c[i], row_c[0], rtol=1e-12, atol=1e-14)

    def test_probabilities_strictly_inside_unit_interval(self, rng):
        model = self._trained(rng)
        _, c = model.predict(rng.random((50, 2)))
        assert np.all((c > 0.0) & (c < 1.0))

    def test_float32_fit_infers_in_float64(self, rng):
        model = self._trained(rng)
        assert all(w.dtype == np.float64 for w in model.params.values())
        pts = rng.random((5, 2))
        y, c = model.predict(pts)
        assert y.dtype == np.float64 and c.dtype == np.float64
        batch = InputPass(model, pts)
        assert batch.gradient(dy=np.ones_like(batch.y)).dtype == np.float64
        assert batch.gradient(dc=np.ones_like(batch.c_logits)).dtype == np.float64

    def test_inference_deterministic(self, rng):
        model = self._trained(rng)
        pts = rng.random((5, 2))
        a = model.predict(pts)
        b = model.predict(pts)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestInputGradient:
    def test_matches_finite_differences(self, rng):
        space = ParameterSpace(("a", "b", "c"), [0.0, -1.0, 2.0], [2.0, 1.0, 5.0])
        cfg = SurrogateConfig(mode="c+o", blocks=2, block_dim=10, batch_size=64)
        model = JointSurrogate(space, 2, 2, cfg, RandomStream(8, "grad"))
        model.out_norm = OutputNormalizer.fit(rng.uniform(0, 5, (10, 2)))
        x = space.lower + rng.random(3) * space.span

        for selector in [("objective", 0), ("objective", 1), ("constraint", 1)]:
            grad = input_gradient(model, x, selector).ravel()
            fd = np.zeros(3)
            for j in range(3):
                h = 1e-4 * space.span[j]
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fp = _scalar(model, xp, selector)
                fm = _scalar(model, xm, selector)
                fd[j] = (fp - fm) / (2 * h)
            assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8 * max(1, np.abs(fd).max()))

    def test_constant_model_zero_gradient(self, rng):
        space = unit_space(2)
        model = affine_model(space, np.zeros((2, 3)), [1.5, 0.0, -2.0])
        grad = input_gradient(model, rng.random(2), ("objective", 0))
        assert np.allclose(grad, 0.0)

    def test_affine_model_gradient_includes_normalizer_scale(self):
        space = ParameterSpace(("a", "b"), [0.0, 0.0], [4.0, 10.0])
        w = np.array([[2.0, 0.0], [0.0, -1.0]])
        model = affine_model(space, w, [0.0, 0.0])
        grad = input_gradient(model, np.array([1.0, 5.0]), ("objective", 0)).ravel()
        # y0 = 2 * unit_a -> dy0/da = 2 / span_a, dy0/db = 0
        assert np.allclose(grad, [2.0 / 4.0, 0.0])


def input_gradient(model, x, selector):
    """Gradient with respect to x of one denormalized objective, or one
    constraint probability, summed over the rows."""
    batch = InputPass(model, x)
    kind, j = selector
    if kind == "objective":
        dy = np.zeros_like(batch.y)
        dy[:, j] = 1.0
        return batch.gradient(dy=dy)
    p = 1.0 / (1.0 + np.exp(-batch.c_logits))
    dc = np.zeros_like(p)
    dc[:, j] = p[:, j] * (1.0 - p[:, j])
    return batch.gradient(dc=dc)


def _scalar(model, x, selector):
    y, c = model.predict(x[None, :])
    kind, j = selector
    return float(y[0, j]) if kind == "objective" else float(c[0, j])


class TestArchitecture:
    def test_joint_with_zero_constraints_equals_objective_only(self):
        space = unit_space(3)
        cfg = SurrogateConfig(mode="c+o", blocks=2, block_dim=8)
        joint = JointSurrogate(space, 2, 0, cfg, RandomStream(1, "a"))
        plain = JointSurrogate(
            space, 2, 0, SurrogateConfig(mode="o", blocks=2, block_dim=8),
            RandomStream(1, "a"),
        )
        assert sorted(joint.params) == sorted(plain.params)
        for name in joint.params:
            assert np.array_equal(joint.params[name], plain.params[name])

    def test_no_active_head_rejected(self):
        with pytest.raises(ValueError, match="no active output head"):
            JointSurrogate(unit_space(2), 0, 0, SurrogateConfig(mode="o"), RandomStream(0))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        space = ParameterSpace(("a", "b"), [0.0, -1.0], [2.0, 1.0])
        x = rng.uniform(space.lower, space.upper, (20, 2))
        y = np.column_stack([x[:, 0] ** 2, np.abs(x[:, 1])])
        c = (x[:, :1] > 1.0).astype(np.int8)
        cfg = SurrogateConfig(mode="c+o", blocks=1, block_dim=8, batch_size=64)
        model, _ = train(*rows_from(x, y, c), space, cfg, RandomStream(6))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as data:  # the format stores float64 weights
            assert all(data[key].dtype == np.float64 for key in data.files if key.startswith("w::"))
        restored = load_checkpoint(path)
        for name, w in model.params.items():
            assert np.array_equal(w, restored.params[name])
        pts = rng.random((7, 2))
        y0, c0 = model.predict(pts)
        y1, c1 = restored.predict(pts)
        assert np.array_equal(y0, y1) and np.array_equal(c0, c1)


# ----------------------------------------------------------------------
# explicit training passes against the autodiff tape
# ----------------------------------------------------------------------
#
# The reference below trains through the autodiff tape: losses built from
# Tensor operations on leaf tensors that hold the model's weights, one
# backward() over the recorded graph, and Adam stepping each leaf on its
# own. The explicit passes perform the same array operations in the same
# order, so they must match it bit for bit.


def leaves(model):
    """A fresh leaf tensor per weight of ``model``, keyed like its params."""
    return {name: Tensor(w, requires_grad=True) for name, w in model.params.items()}


class TapeAdam:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = 0.9, 0.999
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def tape_objective_loss(pred, targets, kind):
    r = pred - Tensor(targets)
    if kind == "mse":
        return (r * r).mean()
    if kind == "huber":
        a = r.abs()
        quad = 0.5 * (r * r)
        lin = a - 0.5
        mask = (np.abs(r.data) <= 1.0).astype(float)
        return (quad * Tensor(mask) + lin * Tensor(1.0 - mask)).mean()
    if kind in ("log_cosh", "weighted_log_cosh"):
        a = r.abs()
        log_cosh = a + (a * -2.0).exp().log1p() - np.log(2.0)
        if kind == "weighted_log_cosh":
            return (log_cosh * Tensor(1.0 / (np.abs(targets) + 1.0))).mean()
        return log_cosh.mean()
    if kind == "distance_mse":
        return (r * r * Tensor(1.0 / (1.0 + np.abs(targets)))).mean()
    if kind == "relative":
        return (r.abs() * Tensor(1.0 / (np.abs(targets) + 1e-12))).mean()
    raise ValueError(kind)


def tape_composite_loss(model, params, x, y_targets, c_targets, train, rng):
    y_out, c_out = surrogate_forward(model, params, x, train, rng)
    parts = []
    if y_out is not None:
        parts.append(tape_objective_loss(y_out, y_targets, model.config.objective_loss))
    if c_out is not None:
        parts.append(bce_with_logits(c_out, c_targets).mean())
    loss = parts[0]
    for part in parts[1:]:
        loss = loss + part
    return loss


def tape_train_single(model, x, y_targets, c_targets, epochs, cfg, rng, val=None, patience=None):
    """`surrogate._train_single` on the tape, in float64; the trained leaves
    are written back to ``model.params``."""
    params = leaves(model)
    try:
        return _tape_epochs(model, params, x, y_targets, c_targets, epochs, cfg, rng, val, patience)
    finally:
        model.params = {name: t.data for name, t in params.items()}


def _tape_epochs(model, params, x, y_targets, c_targets, epochs, cfg, rng, val, patience):
    opt = TapeAdam(params, cfg.learning_rate)
    best_val = np.inf
    best = since_best = 0
    n = x.shape[0]
    for done in range(1, epochs + 1):
        order = rng.permutation(n) if n > cfg.batch_size else np.arange(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.zero_grad()
            loss = tape_composite_loss(
                model, params, Tensor(x[idx]), y_targets[idx], c_targets[idx], True, rng
            )
            if not np.isfinite(loss.item()):
                return done - 1, best
            loss.backward()
            opt.step()
            total += loss.item() * len(idx)
        if not np.isfinite(total / n):
            return done - 1, best
        if val is not None:
            vx, vy, vc = val
            vloss = tape_composite_loss(model, params, Tensor(vx), vy, vc, False, None).item()
            if not np.isfinite(vloss):
                return done, best
            if vloss < best_val:
                best_val = vloss
                best, since_best = done, 0
            else:
                since_best += 1
                if patience is not None and since_best >= patience:
                    return done, best
    return epochs, best


GRAD_SPACE = ParameterSpace(("a", "b", "c"), [0.0, -1.0, 2.0], [2.0, 1.0, 5.0])


def _gradient_fixture(n=23):
    rng = np.random.default_rng(0)
    x = GRAD_SPACE.lower + rng.random((n, 3)) * GRAD_SPACE.span
    # residuals on both sides of Huber's |r| = 1 knee
    y = rng.normal(size=(n, 2)) * 1.5
    c = (rng.random((n, 2)) > 0.5).astype(float)
    return x, y, c


def _explicit_gradients(model, x, y, c, dropout_seed):
    """Loss, flat parameter vector, flat gradient, gradient views and input
    gradient from the explicit forward/backward passes, and the output
    gradients (dy, dc) of the loss."""
    flat, grad, grads = model._flat_parameters()
    y_out, c_out, cache = model._forward(model._unit(x), np.random.default_rng(dropout_seed))
    kind = model.config.objective_loss
    value, dy, dc = surrogate._composite_loss(y_out, c_out, y, c, kind, grad=True)
    dh = model._backward(cache, dy, dc, grads)
    dx = (dh @ model.params["proj.w"].T) * (1.0 / model.space.span)
    return value, flat, grad, grads, dx, (dy, dc)


class TestExplicitPasses:
    @pytest.mark.parametrize("loss", OBJECTIVE_LOSSES)
    @pytest.mark.parametrize("activation", ["softplus", "relu"])
    @pytest.mark.parametrize("mode", ["o", "c", "c+o"])
    def test_parameter_gradients_equal_tape(self, mode, activation, loss):
        x, y, c = _gradient_fixture()
        subset = np.random.default_rng(1).permutation(x.shape[0])[:11]
        for blocks, dropout, rows in itertools.product(
            [1, 2], [(0.0, 0.0), (0.2, 0.1)], [slice(None), subset]
        ):
            cfg = SurrogateConfig(
                mode=mode, blocks=blocks, block_dim=6, activation=activation,
                dropout=dropout, objective_loss=loss,
            )
            model = JointSurrogate(GRAD_SPACE, 2, 2, cfg, RandomStream(3, "grad"))
            value, _, _, grads, dx, outs = _explicit_gradients(model, x[rows], y[rows], c[rows], 5)
            _, _, cache = model._forward(model._unit(x[rows]), np.random.default_rng(5))
            dh = model._backward(cache, *outs)  # no gradient dict: input gradient only
            input_only = (dh @ model.params["proj.w"].T) * (1.0 / GRAD_SPACE.span)
            assert np.array_equal(input_only, dx), (blocks, dropout)
            params, leaf = leaves(model), Tensor(x[rows], requires_grad=True)
            tape = tape_composite_loss(
                model, params, leaf, y[rows], c[rows], True, np.random.default_rng(5)
            )
            tape.backward()
            assert value == tape.item()
            assert sorted(grads) == sorted(params)
            for name, t in params.items():
                assert np.array_equal(grads[name], t.grad), (blocks, dropout, name)
            assert np.array_equal(dx, leaf.grad), (blocks, dropout)
            if dropout == (0.0, 0.0):  # no normalizer: InputPass takes dy as is
                assert np.array_equal(InputPass(model, x[rows]).gradient(*outs), leaf.grad)

    @pytest.mark.parametrize("loss", OBJECTIVE_LOSSES)
    def test_parameter_gradients_match_finite_differences(self, loss):
        x, y, c = _gradient_fixture(9)
        cfg = SurrogateConfig(
            mode="c+o", blocks=2, block_dim=4, dropout=(0.2, 0.1), objective_loss=loss
        )
        model = JointSurrogate(GRAD_SPACE, 2, 2, cfg, RandomStream(7, "fd"))
        _, flat, analytic, _, _, _ = _explicit_gradients(model, x, y, c, 5)

        def loss_at(j, delta):
            saved = flat[j]
            flat[j] = saved + delta
            y_out, c_out, _ = model._forward(model._unit(x), np.random.default_rng(5))
            flat[j] = saved
            return surrogate._composite_loss(y_out, c_out, y, c, loss, grad=False)[0]

        h = 1e-6
        for j in np.random.default_rng(2).choice(flat.size, 60, replace=False):
            fd = (loss_at(j, h) - loss_at(j, -h)) / (2 * h)
            assert analytic[j] == pytest.approx(fd, rel=1e-5, abs=1e-8), j

    @pytest.mark.parametrize(
        "cfg",
        [
            SurrogateConfig(mode="c+o", blocks=1, block_dim=6, learning_rate=0.1,
                            dropout=(0.0, 0.0)),
            SurrogateConfig(mode="c+o", blocks=2, block_dim=4, learning_rate=0.1,
                            batch_size=5, activation="relu", objective_loss="huber"),
        ],
        ids=["one_batch", "minibatches"],
    )
    def test_train_equals_tape_reference_loop(self, cfg, monkeypatch):
        # `train` fits in float32 and the tape loop in float64: the CV
        # schedules agree exactly, a short fit's weights to float32 rounding,
        # and the returned weights are float64 holding float32 values
        rng = np.random.default_rng(4)
        x = rng.random((15, 2))
        y = np.column_stack([x.sum(axis=1) ** 2, np.sin(3.0 * x[:, 0])])
        c = np.column_stack([x[:, 0] > 0.3, x[:, 1] > 0.6]).astype(np.int8)
        rows = rows_from(x, y, c)
        fits = []
        for single in (surrogate._train_single, tape_train_single):
            monkeypatch.setattr(surrogate, "_train_single", single)
            stream = RandomStream(4, "ref")
            fits.append((train(*rows, unit_space(2), cfg, stream),
                         train(*rows, unit_space(2), cfg, stream, final_epochs=20)[0]))
        ((model, schedule), short), ((_, ref_schedule), ref_short) = fits
        assert schedule == ref_schedule
        for name, w in short.params.items():
            np.testing.assert_allclose(w, ref_short.params[name], rtol=1e-3, err_msg=name)
        for name, w in model.params.items():
            assert w.dtype == np.float64, name
            assert np.array_equal(w.astype(np.float32).astype(np.float64), w), name

    @pytest.mark.parametrize("dropout", [(0.0, 0.0), (0.2, 0.1)], ids=["no_dropout", "dropout"])
    @pytest.mark.parametrize("loss", OBJECTIVE_LOSSES)
    def test_float32_step_stays_float32(self, loss, dropout, monkeypatch):
        # nothing in a float32 training step may promote to float64: the
        # masks take their operand's dtype, and loss constants stay weak
        x, y, c = _gradient_fixture()
        f32 = np.float32
        for activation in ("softplus", "relu"):
            cfg = SurrogateConfig(
                mode="c+o", blocks=2, block_dim=6, activation=activation,
                dropout=dropout, objective_loss=loss,
            )
            model = JointSurrogate(GRAD_SPACE, 2, 2, cfg, RandomStream(3, "f32"))
            seen = []
            backward = model._backward

            def spy(cache, dy, dc, grads=None):
                dh = backward(cache, dy, dc, grads)
                seen.append((cache, dy, dc, dh))
                return dh

            monkeypatch.setattr(model, "_backward", spy)
            # one epoch of one batch: a non-finite loss would return 0 epochs
            done, _ = surrogate._train_single(model, x, y, c, 1, cfg, np.random.default_rng(5))
            assert done == 1 and len(seen) == 1
            assert all(w.dtype == f32 for w in model.params.values())
            # the parameter gradients are written through out= views, which
            # cast silently; dh carries every backward intermediate instead
            (x_unit, blocks, h), dy, dc, dh = seen[0]
            arrays = {"x_unit": x_unit, "h": h, "dy": dy, "dc": dc, "dh": dh}
            names = ("x_hat", "sigma", "z", "u", "e", "mask1", "a", "mask2")
            for i, block in enumerate(blocks):
                arrays.update({f"{name}{i}": a for name, a in zip(names, block) if a is not None})
            for name, a in arrays.items():
                assert a.dtype == f32, (activation, name)

    def test_flat_adam_equals_per_parameter_adam(self, monkeypatch):
        # small chunks, so chunk edges fall inside parameter tensors
        monkeypatch.setattr(surrogate.Adam, "CHUNK", 100)
        cfg = SurrogateConfig(mode="c+o", blocks=2, block_dim=8)
        model = JointSurrogate(GRAD_SPACE, 2, 2, cfg, RandomStream(0))
        ref = JointSurrogate(GRAD_SPACE, 2, 2, cfg, RandomStream(0))
        flat, grad, grads = model._flat_parameters()
        assert flat.size > 5 * surrogate.Adam.CHUNK
        opt = surrogate.Adam(flat, grad, 0.01)
        ref_params = leaves(ref)
        ref_opt = TapeAdam(ref_params, 0.01)
        rng = np.random.default_rng(0)
        for _ in range(5):
            for name, t in ref_params.items():
                t.grad = rng.normal(size=t.data.shape)
                grads[name][...] = t.grad
            opt.step()
            ref_opt.step()
        for name, w in model.params.items():
            assert np.array_equal(w, ref_params[name].data), name

    def test_params_are_views_of_the_flat_vector(self):
        cfg = SurrogateConfig(mode="c+o", blocks=2, block_dim=4)
        model = JointSurrogate(GRAD_SPACE, 2, 2, cfg, RandomStream(0))
        before = {name: w.copy() for name, w in model.params.items()}
        flat, _, _ = model._flat_parameters()
        assert flat.size == sum(a.size for a in before.values())
        flat += 1.0
        for name, w in model.params.items():
            assert np.array_equal(w, before[name] + 1.0)
