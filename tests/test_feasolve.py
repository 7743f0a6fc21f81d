import numpy as np
import pytest

from surmoo import autodiff
from surmoo.core import ParameterSpace, RandomStream
from surmoo.feasolve import (
    DescentTrace,
    FeasolveConfig,
    TraceStep,
    balance_gradients,
    hybrid_epoch_split,
    loss_constraint_logits,
    loss_distance,
    loss_objective,
    loss_zero,
    make_feasible,
    select_diverse,
    trace_diversity_filter,
)
from surmoo.moea import rank_population
from surmoo.problems import get_problem
from surmoo.sensitivity import compute_elasticities
from surmoo.surrogate import JointSurrogate, OutputNormalizer, SurrogateConfig

from conftest import oracle_diversity_filter
from test_surrogate import affine_model, unit_space


class TestLossObjective:
    def test_candidate_at_nadir(self):
        train_y = np.array([[1.0, 1.0]])
        value = loss_objective(np.array([[1.0, 1.0]]), train_y)[0]
        assert value == pytest.approx(-(0.1**2), rel=1e-9)

    def test_ratio_beyond_reference_clamps_to_zero(self):
        # the dynamic nadir tracks the batch maximum, so a ratio over 1.1 can
        # only arise with negative scales; the clamp zeroes that contribution
        train_y = np.array([[-1.0]])
        value = loss_objective(np.array([[-2.0], [-0.2]]), train_y)[0]
        assert value == pytest.approx(-(1.1 - 1.0), rel=1e-6)

    def test_hand_case(self):
        train_y = np.array([[1.0, 1.0]])
        value = loss_objective(np.array([[0.5, 0.5]]), train_y)[0]
        assert value == pytest.approx(-0.36, rel=1e-9)

    def test_batch_sums_contributions(self):
        train_y = np.array([[1.0]])
        value = loss_objective(np.array([[0.5], [1.0]]), train_y)[0]
        assert value == pytest.approx(-(0.6 + 0.1), rel=1e-9)

    def test_dynamic_nadir_uses_batch_maximum(self):
        train_y = np.array([[1.0]])
        # batch max 2.0 exceeds the training max, so nadir = 2.0
        value = loss_objective(np.array([[2.0], [1.0]]), train_y)[0]
        assert value == pytest.approx(-((1.1 - 1.0) + (1.1 - 0.5)), rel=1e-9)


def logit(p):
    return np.log(p) - np.log1p(-p)


class TestLossConstraint:
    def test_confident_feasible_goes_to_zero(self):
        value = loss_constraint_logits(logit(np.array([[1.0 - 1e-12]])), 2.0, 0.25)[0]
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_degenerates_to_bce(self):
        probs = np.array([[0.3, 0.8]])
        value = loss_constraint_logits(logit(probs), gamma=0.0, alpha=1.0)[0]
        assert value == pytest.approx(-np.log(probs).mean(), rel=1e-9)

    def test_half_probability_entry(self):
        value = loss_constraint_logits(np.array([[0.0]]), 2.0, 0.25)[0]
        assert value == pytest.approx(0.25 * 0.25 * np.log(2.0), rel=1e-9)

    def test_logit_form_matches_probability_form(self, rng):
        logits = rng.normal(size=(4, 3))
        probs = 1.0 / (1.0 + np.exp(-logits))
        value = loss_constraint_logits(logits, 2.0, 0.25)[0]
        assert value == pytest.approx((0.25 * (1.0 - probs) ** 2 * -np.log(probs)).mean(), rel=1e-9)

    def test_saturated_logits_stay_finite(self):
        value, grad = loss_constraint_logits(np.array([[-800.0, 800.0]]), 2.0, 0.25)
        assert value == pytest.approx(0.25 * 800.0 / 2, rel=1e-12)
        assert np.all(np.isfinite(grad))


class TestLossDistance:
    def test_coincident_point_zero(self):
        assert loss_distance(np.array([[0.3, 0.3]]), np.array([[0.3, 0.3]]))[0] == 0.0

    def test_unit_gap(self):
        assert loss_distance(np.array([[0.0]]), np.array([[1.0]]))[0] == pytest.approx(-1.0)

    def test_two_by_two(self):
        value = loss_distance(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))[0]
        assert value == pytest.approx(-0.5)


class TestLossZero:
    def test_nonnegative_predictions(self):
        assert loss_zero(np.array([[0.0, 2.0]]))[0] == 0.0

    def test_single_negative(self):
        assert loss_zero(np.array([[-2.0]]))[0] == pytest.approx(4.0)

    def test_mixed(self):
        assert loss_zero(np.array([[-1.0, 3.0]]))[0] == pytest.approx(1.0)


def fd_gradient(fn, x0, h=1e-6):
    grad = np.zeros_like(x0)
    for i in np.ndindex(x0.shape):
        plus, minus = x0.copy(), x0.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (fn(plus)[0] - fn(minus)[0]) / (2 * h)
    return grad


CLOSED_FORMS = {
    "objective": lambda y: loss_objective(y, np.array([[0.5, 2.5]]), 1.1),
    "objective_extrapolated_nadir": lambda y: loss_objective(y, np.array([[0.1, 0.2]]), 1.3),
    "constraint": lambda z: loss_constraint_logits(z, 2.0, 0.25),
    "constraint_gamma": lambda z: loss_constraint_logits(z, 1.5, 0.6),
    "distance": lambda x: loss_distance(x, np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.2]])),
    "zero": lambda y: loss_zero(y),
}


class TestClosedFormGradients:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_matches_finite_differences(self, name, rng):
        fn = CLOSED_FORMS[name]
        for _ in range(5):
            x0 = rng.uniform(-1.0, 2.0, size=(4, 2))
            value, grad = fn(x0)
            assert value == fn(x0)[0]
            expected = fd_gradient(fn, x0)
            scale = max(1.0, np.abs(expected).max())
            assert np.allclose(grad, expected, atol=1e-6 * scale), name

    def test_objective_gradient_at_tied_maximum(self):
        # both rows hold the batch maximum, which sets the nadir: the nadir
        # gradient is split between them, so their sum is the derivative
        # along the direction that keeps the tie
        y = np.array([[1.0, 0.2], [1.0, 0.4], [0.3, 0.9]])
        train_y = np.array([[0.5, 1.0]])
        _, grad = loss_objective(y, train_y)
        assert grad[0, 0] != 0.0
        direction = np.zeros_like(y)
        direction[:2, 0] = 1.0
        h = 1e-6
        fd = (loss_objective(y + h * direction, train_y)[0]
              - loss_objective(y - h * direction, train_y)[0]) / (2 * h)
        assert grad[0, 0] + grad[1, 0] == pytest.approx(fd, rel=1e-6)

    def test_objective_gradient_exact_with_zero_factor(self):
        # row 0 lies beyond the reference in objective 1 (a negative nadir
        # scales it to 10), so its product has a zero factor: both of its
        # gradients are exactly zero, not 0/0, and row 1 is unaffected
        y = np.array([[0.5, -2.0], [1.0, -0.2]])
        value, grad = loss_objective(y, np.array([[1.0, -0.2]]))
        assert value == pytest.approx(-(0.1 * 0.1), rel=1e-9)
        assert np.array_equal(grad[0], [0.0, 0.0])
        assert np.all(np.isfinite(grad)) and np.all(grad[1] != 0.0)

    def test_distance_coincident_pair_adds_no_gradient(self):
        value, grad = loss_distance(np.array([[0.3, 0.3]]), np.array([[0.3, 0.3], [0.3, 0.7]]))
        assert value == pytest.approx(-0.2)
        assert np.allclose(grad, [[0.0, 0.5]])


class TestBalance:
    def test_single_gradient_unchanged(self):
        g = np.array([3.0, 4.0])
        assert np.allclose(balance_gradients([g]), g)

    def test_rescaling_to_reference_norm(self):
        g1 = np.array([2.0, 0.0])
        g2 = np.array([0.0, 4.0])
        total = balance_gradients([g1, g2])
        assert np.allclose(total, [2.0, 2.0])

    def test_zero_gradient_contributes_nothing(self):
        g1 = np.array([1.0, 0.0])
        g2 = np.zeros(2)
        assert np.allclose(balance_gradients([g1, g2]), g1)

    def test_scaled_terms_match_reference_norm(self, rng):
        for _ in range(100):
            grads = [rng.normal(size=(4, 3)) for _ in range(rng.integers(2, 5))]
            ref = np.linalg.norm(grads[0])
            for g in grads:
                scaled = (ref / (np.linalg.norm(g) + 1e-12)) * g
                assert abs(np.linalg.norm(scaled) - ref) < 1e-9


def constraint_model(space, w, bias=0.0):
    """Zeroed-block surrogate whose constraint logit is w . unit(x) + bias."""
    n = space.dim
    cfg = SurrogateConfig(mode="c", blocks=1, block_dim=n, batch_size=64)
    model = JointSurrogate(space, 0, 1, cfg, RandomStream(0, "con"))
    model.params["block0.fc2.w"].data = np.zeros((cfg.hidden_dim, n))
    model.params["block0.fc2.b"].data = np.zeros(n)
    model.params["proj.w"].data = np.eye(n)
    model.params["proj.b"].data = np.zeros(n)
    model.params["head_con.w"].data = np.asarray(w, dtype=float).reshape(n, 1)
    model.params["head_con.b"].data = np.array([bias])
    return model


class TestMakeFeasible:
    def test_constant_model_plateaus_in_window_steps(self):
        space = unit_space(2)
        model = affine_model(space, np.zeros((2, 2)), [1.0, 2.0])
        model.out_norm = None
        start = np.array([[0.25, 0.5], [0.75, 0.25]])
        cfg = FeasolveConfig(targets=("objective",), plateau_window=50)
        out, trace = make_feasible(
            start, model, cfg, train_objectives=np.array([[3.0, 3.0]])
        )
        assert np.array_equal(out, start)
        assert len(trace) == 50
        assert trace.terminated_early

    def test_constraint_descent_moves_along_gradient_until_clipped(self):
        space = unit_space(2)
        model = constraint_model(space, w=[4.0, -4.0])
        start = np.array([[0.5, 0.5]])
        cfg = FeasolveConfig(targets=("constraint",), max_iters=1000, learning_rate=0.01)
        out, trace = make_feasible(start, model, cfg)
        # logit grows with x1 and shrinks with x2: expect movement to (1, 0)
        assert out[0, 0] > 0.9
        assert out[0, 1] < 0.1
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_predicted_feasibility_increases(self):
        space = unit_space(3)
        model = constraint_model(space, w=[3.0, 3.0, 3.0], bias=-4.0)
        start = np.array([[0.2, 0.1, 0.3], [0.4, 0.2, 0.1]])
        cfg = FeasolveConfig(targets=("constraint",), max_iters=200, learning_rate=0.01)
        _, trace = make_feasible(start, model, cfg)
        first = trace.steps[0].pred_feasibility.mean()
        last = trace.steps[-1].pred_feasibility.mean()
        assert last > first

    def test_candidates_stay_in_bounds_every_step(self):
        space = unit_space(2)
        model = constraint_model(space, w=[10.0, 10.0])
        start = np.array([[0.9, 0.95]])
        cfg = FeasolveConfig(targets=("constraint",), max_iters=300, learning_rate=0.05)
        _, trace = make_feasible(start, model, cfg)
        for entry in trace.steps:
            assert np.all(entry.candidates >= 0.0) and np.all(entry.candidates <= 1.0)

    def test_candidate_on_a_training_input_gets_no_distance_gradient(self):
        # on TNK's [0, pi] box, x1 = 0.3 divided by the span and multiplied
        # by its reciprocal differ in the last bit; candidates and training
        # inputs must share one unit-box map for the pair to coincide
        space = get_problem("tnk").space
        cfg = SurrogateConfig(mode="c+o", blocks=1, block_dim=4)
        model = JointSurrogate(space, 2, 2, cfg, RandomStream(0, "tnk"))
        start = np.array([[0.3, 0.7]])
        fs_cfg = FeasolveConfig(targets=("distance",), max_iters=3)
        out, trace = make_feasible(start, model, fs_cfg, train_inputs=start)
        assert trace.steps[0].loss == 0.0
        assert np.array_equal(out, start)

    def test_sgd_used_for_zero_only_target(self):
        space = unit_space(1)
        model = affine_model(space, np.array([[8.0]]), [-4.0])
        model.out_norm = None
        start = np.array([[0.25]])  # prediction -2, pushes x upward
        cfg = FeasolveConfig(targets=("zero",), max_iters=5, learning_rate=0.01,
                             plateau_window=50)
        out, trace = make_feasible(start, model, cfg)
        # plain SGD steps: dL/dx = 2*relu(-y)*(-dy/dx) with dy/dx = 8
        x = 0.25
        for _ in range(5):
            y = 8.0 * x - 4.0
            grad = -2.0 * max(-y, 0.0) * 8.0
            x = min(max(x - 0.01 * grad, 0.0), 1.0)
        assert out[0, 0] == pytest.approx(x, rel=1e-12)


class TestHybridSplit:
    def _ranked(self, count):
        gen = np.random.default_rng(3)
        members = gen.random((count, 2))
        objs = gen.random((count, 2))
        return rank_population(members, objs, np.ones(count, dtype=bool))

    def test_even_split(self):
        elite, explore = hybrid_epoch_split(self._ranked(100))
        assert elite.shape[0] == 50 and explore.shape[0] == 50

    def test_two_members(self):
        elite, explore = hybrid_epoch_split(self._ranked(2))
        assert elite.shape[0] == 1 and explore.shape[0] == 1

    def test_odd_gives_ceiling_to_elite(self):
        elite, explore = hybrid_epoch_split(self._ranked(3))
        assert elite.shape[0] == 2 and explore.shape[0] == 1

    def test_elite_comes_first_in_rank_order(self):
        ranked = self._ranked(10)
        elite, explore = hybrid_epoch_split(ranked)
        ordered = ranked.sorted_members()
        assert np.array_equal(elite, ordered[:5])
        assert np.array_equal(explore, ordered[5:])


class TestDiversityFilter:
    def test_spec_walkthrough(self):
        preds = np.array([[0.0], [0.1], [0.5], [1.0]])
        keep = select_diverse(preds, 2)
        assert sorted(keep.tolist()) == [2, 3]

    def test_identity_when_k_covers_everything(self):
        preds = np.array([[0.0], [1.0]])
        assert select_diverse(preds, 2).tolist() == [0, 1]
        assert select_diverse(preds, 5).tolist() == [0, 1]

    def test_collinear_extremes_never_both_removed_early(self):
        # the far endpoint always survives uniform spacing; confirmed by
        # brute-force simulation of the removal sequence
        for count in (4, 7, 11):
            preds = np.linspace(0.0, 1.0, count)[:, None]
            keep = set(select_diverse(preds, 2).tolist())
            assert keep == oracle_diversity_filter(preds, 2)
            assert (0 in keep) or (count - 1 in keep)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(100):
            count = int(rng.integers(3, 24))
            q = int(rng.integers(1, 4))
            k = int(rng.integers(1, count))
            preds = rng.random((count, q))
            got = set(select_diverse(preds, k).tolist())
            assert got == oracle_diversity_filter(preds, k)

    def test_trace_filter_returns_parameters(self):
        steps = [
            TraceStep(0, np.array([[0.0, 0.0]]), 1.0, np.array([[0.0]]), None),
            TraceStep(1, np.array([[0.1, 0.1]]), 0.9, np.array([[0.1]]), None),
            TraceStep(2, np.array([[0.5, 0.5]]), 0.5, np.array([[0.5]]), None),
            TraceStep(3, np.array([[1.0, 1.0]]), 0.1, np.array([[1.0]]), None),
        ]
        trace = DescentTrace(steps=steps)
        picks = trace_diversity_filter(trace, 2)
        assert picks.shape == (2, 2)
        assert sorted(picks[:, 0].tolist()) == [0.5, 1.0]

    def test_trace_filter_oversized_k_returns_everything(self):
        steps = [TraceStep(0, np.array([[0.0, 0.0]]), 1.0, np.array([[0.0]]), None)]
        picks = trace_diversity_filter(DescentTrace(steps=steps), 5)
        assert picks.shape == (1, 2)


class TestConfig:
    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            FeasolveConfig(targets=())

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown descent targets"):
            FeasolveConfig(targets=("objective", "bogus"))

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("name", ["max_iters", "plateau_window"])
    def test_step_counts_must_be_positive(self, name, value):
        # plateau_window 0 read the whole loss list and stopped descent
        # after one step; max_iters -5 ran no step at all
        with pytest.raises(ValueError, match="must be at least 1"):
            FeasolveConfig(**{name: value})


def test_descent_and_sensitivity_never_run_the_tape(monkeypatch, rng):
    def refuse(self):
        raise AssertionError("the autodiff tape ran")

    monkeypatch.setattr(autodiff.Tensor, "backward", refuse)
    space = ParameterSpace(("a", "b", "c"), [0.0, -1.0, 2.0], [2.0, 1.0, 5.0])
    cfg = SurrogateConfig(mode="c+o", blocks=2, block_dim=8)
    model = JointSurrogate(space, 2, 2, cfg, RandomStream(11, "tape"))
    model.out_norm = OutputNormalizer.fit(rng.uniform(0.0, 5.0, (10, 2)))
    x = space.lower + rng.random((6, 3)) * space.span
    train_x = space.lower + rng.random((10, 3)) * space.span
    fs_cfg = FeasolveConfig(targets=("objective", "constraint", "distance", "zero"), max_iters=5)
    out, trace = make_feasible(
        x, model, fs_cfg, rng.uniform(0.0, 5.0, (10, 2)), train_x
    )
    assert len(trace) == 5 and not trace.aborted
    assert not np.array_equal(out, x)
    assert np.all(np.isfinite(compute_elasticities(model, train_x)))
