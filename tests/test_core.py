import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surmoo.core import (
    EvaluationRecord,
    ParameterSpace,
    ParetoArchive,
    RandomStream,
    RunHistory,
    dominance_matrix,
    expit,
    is_feasible,
    nondominated_mask,
)

from conftest import oracle_dominates, oracle_nondominated_indices


def make_record(objectives, constraints=(), params=None, epoch=0):
    params = params if params is not None else np.zeros(2)
    return EvaluationRecord(params, np.asarray(objectives, dtype=float),
                            np.asarray(constraints, dtype=np.int8), epoch, "init")


class TestFeasibility:
    def test_all_satisfied(self):
        assert is_feasible([1, 1, 1])

    def test_one_violation(self):
        assert not is_feasible([1, 0, 1])

    def test_empty_product(self):
        assert is_feasible([])


def oracle_expit(x: float) -> float:
    """Logistic sigmoid from libm's exp, in the form that cannot overflow."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class TestExpit:
    ULP_BOUND = 4

    def test_matches_math_exp_oracle_within_ulp_bound(self):
        mag = np.geomspace(1e-3, 800.0, 20_001)
        x = np.concatenate([mag, -mag])
        got = expit(x)
        want = np.array([oracle_expit(v) for v in x])
        ulps = np.abs(got - want) / np.spacing(want)
        assert ulps.max() <= self.ULP_BOUND

    def test_exact_values_at_infinities_and_zeros(self):
        x = np.array([np.inf, -np.inf, 0.0, -0.0])
        assert expit(x).tolist() == [1.0, 0.0, 0.5, 0.5]

    def test_nan_propagates(self):
        assert np.isnan(expit(np.array([np.nan, 1.0]))).tolist() == [True, False]

    def test_extreme_arguments_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expit(np.array([1e308, -1e308, -746.0])).tolist() == [1.0, 0.0, 0.0]

    def test_scalar_argument_returns_a_scalar(self):
        value = expit(0.25)
        assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
        assert value == oracle_expit(0.25)


def dominates(a, b) -> bool:
    """The dominance relation on one pair, through the program's kernel."""
    return bool(dominance_matrix(a, b)[0, 0])


class TestDominance:
    def test_strict(self):
        assert dominates((0, 0), (1, 1))

    def test_incomparable(self):
        assert not dominates((0, 1), (1, 0))

    def test_equal(self):
        assert not dominates((1, 1), (1, 1))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dominates((np.nan, 0), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=4).map(np.array)
    )
    def test_irreflexive(self, vec):
        assert not dominates(vec, vec)

    @given(
        st.integers(0, 10_000),
        st.integers(2, 4),
    )
    @settings(max_examples=50)
    def test_transitive(self, seed, q):
        gen = np.random.default_rng(seed)
        a, b, c = gen.random((3, q))
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestDominanceKernel:
    @given(st.integers(0, 10_000), st.integers(0, 12), st.integers(0, 12), st.integers(1, 4))
    @settings(max_examples=60)
    def test_matrix_matches_pairwise(self, seed, n, m, q):
        gen = np.random.default_rng(seed)
        a = gen.integers(0, 3, size=(n, q)).astype(float)
        b = gen.integers(0, 3, size=(m, q)).astype(float)
        dom = dominance_matrix(a, b)
        assert dom.shape == (n, m)
        for i in range(n):
            for j in range(m):
                assert dom[i, j] == oracle_dominates(a[i], b[j])

    @given(st.integers(0, 10_000), st.integers(1, 30), st.integers(1, 4))
    @settings(max_examples=60)
    def test_mask_matches_brute_force(self, seed, count, q):
        gen = np.random.default_rng(seed)
        objs = gen.integers(0, 4, size=(count, q)).astype(float)
        got = np.nonzero(nondominated_mask(objs))[0].tolist()
        assert got == oracle_nondominated_indices(objs)

    def test_duplicates_kept(self):
        assert nondominated_mask([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]).tolist() == [
            True, True, False
        ]

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            dominance_matrix([[np.nan, 0.0]], [[1.0, 1.0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominance_matrix([[1.0]], [[1.0, 2.0]])


def loop_archive(objs) -> list:
    """Indices an insert-one-at-a-time archive keeps, in archive order."""
    kept: list = []
    for i, row in enumerate(objs):
        if any(oracle_dominates(objs[j], row) for j in kept):
            continue
        kept = [j for j in kept if not oracle_dominates(row, objs[j])]
        kept.append(i)
    return kept


class TestArchive:
    def test_new_point_dominates(self):
        arch = ParetoArchive()
        assert arch.insert(make_record([1, 1]))
        assert arch.insert(make_record([0, 0]))
        assert len(arch) == 1
        assert np.allclose(arch.objectives(), [[0, 0]])

    def test_dominated_rejected(self):
        arch = ParetoArchive.from_records([make_record([0, 0])])
        assert not arch.insert(make_record([1, 1]))
        assert len(arch) == 1

    def test_mutually_nondominated_kept(self):
        arch = ParetoArchive.from_records([make_record([0, 1]), make_record([1, 0])])
        assert arch.insert(make_record([0.5, 0.5]))
        assert len(arch) == 3

    def test_infeasible_rejected_with_status(self):
        arch = ParetoArchive()
        assert arch.insert(make_record([0, 0], constraints=[0])) is False
        assert len(arch) == 0

    def test_nan_rejected(self):
        arch = ParetoArchive()
        assert arch.insert(make_record([np.nan, 0])) is False

    def test_equal_objectives_distinct_params_both_kept(self):
        arch = ParetoArchive()
        arch.insert(make_record([1, 1], params=np.array([0.0, 0.0])))
        assert arch.insert(make_record([1, 1], params=np.array([0.5, 0.5])))
        assert len(arch) == 2

    @given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from([2, 3]))
    @settings(max_examples=120, deadline=None)
    def test_invariant_matches_brute_force(self, seed, count, q):
        gen = np.random.default_rng(seed)
        objs = gen.integers(0, 5, size=(count, q)).astype(float)
        records = [make_record(row, params=gen.random(2)) for row in objs]
        arch = ParetoArchive()
        for rec in records:
            arch.insert(rec)
        got = sorted(map(tuple, arch.objectives()))
        nd = oracle_nondominated_indices(objs)
        # brute force keeps duplicates of non-dominated rows, as the archive does
        expected = sorted(tuple(objs[i]) for i in nd)
        assert got == expected
        # same members in the same order as the one-at-a-time loop
        order = loop_archive(objs)
        assert [id(r) for r in arch.records] == [id(records[i]) for i in order]
        assert np.array_equal(arch.objectives(), objs[order])


class TestParameterSpace:
    def test_basic(self):
        space = ParameterSpace(("a", "b"), [0, -1], [1, 1])
        assert space.dim == 2
        assert np.allclose(space.clip([2.0, -3.0]), [1.0, -1.0])

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="lower < upper"):
            ParameterSpace(("a",), [1.0], [1.0])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ParameterSpace(("a", "a"), [0, 0], [1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace((), [], [])


class TestRunHistory:
    def test_epoch_monotonicity_enforced(self):
        history = RunHistory()
        history.append(make_record([0.0], epoch=1))
        with pytest.raises(ValueError):
            history.append(make_record([0.0], epoch=0))

    def test_viable_arrays_in_log_order_without_nan_rows(self):
        history = RunHistory()
        history.append(make_record([3.0, 1.0], [1, 1], params=[0.3, 0.0]))
        history.append(make_record([np.nan, 2.0], [1, 0], params=[0.9, 0.9]))
        history.append(make_record([1.0, 2.0], [0, 1], params=[0.1, 0.0]))
        history.append(make_record([2.0, 0.5], [1, 0], params=[0.2, 0.0], epoch=1))
        x, y, c = history.viable_arrays()
        assert np.array_equal(x, [[0.3, 0.0], [0.1, 0.0], [0.2, 0.0]])
        assert np.array_equal(y, [[3.0, 1.0], [1.0, 2.0], [2.0, 0.5]])
        assert np.array_equal(c, [[1, 1], [0, 1], [1, 0]]) and c.dtype == float

    def test_viable_arrays_empty_when_nothing_is_viable(self):
        history = RunHistory()
        assert [a.shape for a in history.viable_arrays()] == [(0, 0)] * 3
        history.append(make_record([np.nan], [1]))
        assert [a.shape for a in history.viable_arrays()] == [(0, 0)] * 3

    def test_viable_arrays_flags_without_constraints(self):
        history = RunHistory()
        for i in range(3):
            history.append(make_record([float(i)]))
        x, y, c = history.viable_arrays()
        assert x.shape == (3, 2) and y.shape == (3, 1) and c.shape == (3, 0)

    def test_viable_and_feasible_filters(self):
        history = RunHistory()
        history.append(make_record([np.nan], constraints=[1]))
        history.append(make_record([1.0], constraints=[0]))
        history.append(make_record([1.0], constraints=[1]))
        assert len(history.viable_records()) == 2
        assert len(history.feasible_records()) == 1


class TestRandomStream:
    def test_identical_labels_identical_sequences(self):
        a = RandomStream(42, "init").generator().random(16)
        b = RandomStream(42, "init").generator().random(16)
        assert np.array_equal(a, b)

    def test_different_purposes_differ(self):
        a = RandomStream(42, "init").generator().random(16)
        b = RandomStream(42, "moea").generator().random(16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(1, "init").generator().random(16)
        b = RandomStream(2, "init").generator().random(16)
        assert not np.array_equal(a, b)

    def test_child_composes_labels(self):
        child = RandomStream(7, "root").child("epoch1").child("moea")
        again = RandomStream(7, "root/epoch1/moea")
        assert np.array_equal(child.generator().random(8), again.generator().random(8))

    def test_order_of_creation_irrelevant(self):
        root = RandomStream(9)
        first = root.child("a").generator().random(4)
        root.child("b").generator().random(4)
        second = RandomStream(9).child("a").generator().random(4)
        assert np.array_equal(first, second)
