import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surmoo.core import ParameterSpace, RandomStream
from surmoo.sampling import (
    SOBOL_MAX_DIM,
    check_design_size,
    sample_lhc,
    sample_mc,
    sample_slhc,
    sample_sobol,
)


def unit_space(n):
    return ParameterSpace(tuple(f"x{i}" for i in range(n)), np.zeros(n), np.ones(n))


def stratum_indices(points, space, n_points):
    unit = (points - space.lower) / space.span
    return np.clip(np.floor(unit * n_points).astype(int), 0, n_points - 1)


class TestSLHC:
    def test_odd_count_rejected_with_advice(self):
        with pytest.raises(ValueError, match="use 6"):
            sample_slhc(unit_space(2), 5, RandomStream(0))

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            sample_slhc(unit_space(2), 0, RandomStream(0))

    def test_n2_one_point_per_half(self):
        design = sample_slhc(unit_space(1), 2, RandomStream(3))
        pts = np.sort(design.ravel())
        assert pts[0] < 0.5 < pts[1]
        assert pts[0] + pts[1] == pytest.approx(1.0, abs=1e-12)

    def test_stratification_exact(self):
        space = unit_space(3)
        for seed in range(5):
            design = sample_slhc(space, 8, RandomStream(seed))
            strata = stratum_indices(design, space, 8)
            for j in range(3):
                assert sorted(strata[:, j]) == list(range(8))

    def test_quartiles_n4(self):
        space = unit_space(2)
        design = sample_slhc(space, 4, RandomStream(11))
        strata = stratum_indices(design, space, 4)
        for j in range(2):
            assert sorted(strata[:, j]) == [0, 1, 2, 3]

    def test_pair_sums(self):
        space = ParameterSpace(("a", "b"), [-2.0, 1.0], [4.0, 9.0])
        n = 10
        design = sample_slhc(space, n, RandomStream(5))
        for j in range(2):
            sums = np.sort(design[: n // 2, j] + design[n // 2 :, j])
            target = space.lower[j] + space.upper[j]
            stratum_width = space.span[j] / n
            assert np.all(np.abs(sums - target) < stratum_width)

    def test_mean_is_center(self):
        space = ParameterSpace(
            tuple(f"p{i}" for i in range(12)),
            np.linspace(-3, 0, 12),
            np.linspace(1, 7, 12),
        )
        design = sample_slhc(space, 100, RandomStream(17))
        center = (space.lower + space.upper) / 2
        assert np.allclose(design.mean(axis=0), center, atol=1e-9)


class TestLHC:
    def test_one_point_per_third(self):
        space = unit_space(1)
        design = sample_lhc(space, 3, RandomStream(2))
        strata = stratum_indices(design, space, 3)
        assert sorted(strata[:, 0]) == [0, 1, 2]

    def test_stratification_exact(self):
        space = unit_space(4)
        design = sample_lhc(space, 7, RandomStream(9))
        strata = stratum_indices(design, space, 7)
        for j in range(4):
            assert sorted(strata[:, j]) == list(range(7))


class TestMC:
    def test_single_point_in_box(self):
        space = ParameterSpace(("a",), [3.0], [4.0])
        design = sample_mc(space, 1, RandomStream(0))
        assert design.shape == (1, 1)
        assert 3.0 <= design[0, 0] <= 4.0


class TestSobol:
    def test_first_four_points_reference(self):
        # canonical unscrambled base-2 sequence in two dimensions
        design = sample_sobol(unit_space(2), 4, RandomStream(0))
        expected = np.array([[0.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75]])
        assert np.allclose(design, expected)

    def test_halves_equidistribute(self):
        design = sample_sobol(unit_space(2), 4, RandomStream(0))
        for j in range(2):
            assert np.sum(design[:, j] < 0.5) == 2

    def test_high_dimension_falls_back_with_warning(self):
        space = unit_space(80)
        with pytest.warns(UserWarning, match="falling back"):
            design = sample_sobol(space, 8, RandomStream(1))
        assert design.shape == (8, 80)

    def test_nonpow2_count(self):
        design = sample_sobol(unit_space(3), 5, RandomStream(0))
        assert design.shape == (5, 3)

    @pytest.mark.parametrize("dim", range(1, SOBOL_MAX_DIM + 1))
    def test_equals_scipy_unscrambled_sequence(self, dim):
        from scipy.stats import qmc

        for n in (1, 2, 3, 100, 128, 129, 1000, 4096):
            design = sample_sobol(unit_space(dim), n, RandomStream(0))
            m = (n - 1).bit_length()
            expected = qmc.Sobol(dim, scramble=False).random_base2(m)[:n]
            assert np.array_equal(design, expected), n

    def test_count_above_2_to_30_rejected(self):
        with pytest.raises(ValueError, match="at most 2\\*\\*30"):
            sample_sobol(unit_space(2), 2**30 + 1, RandomStream(0))


class TestCheckDesignSize:
    @pytest.mark.parametrize(
        "scheme, n_points, match",
        [
            ("slhc", 7, "use 8"),
            ("slhc", 0, "at least 2"),
            ("lhc", 0, "at least 1"),
            ("mc", 0, "at least 1"),
            ("sobol", 0, "at least 1"),
            ("halton", 8, "unknown sampling scheme"),
        ],
    )
    def test_rejects(self, scheme, n_points, match):
        with pytest.raises(ValueError, match=match):
            check_design_size(scheme, n_points)

    @pytest.mark.parametrize("scheme, n_points", [("slhc", 2), ("lhc", 1), ("mc", 3), ("sobol", 2**30)])
    def test_accepts(self, scheme, n_points):
        check_design_size(scheme, n_points)


@given(
    seed=st.integers(0, 10_000),
    n_points=st.integers(1, 32),
    dim=st.integers(1, 8),
    scheme=st.sampled_from(["lhc", "mc", "sobol"]),
)
@settings(max_examples=150, deadline=None)
def test_bounds_respected(seed, n_points, dim, scheme):
    gen = np.random.default_rng(seed)
    lower = gen.uniform(-5, 0, dim)
    upper = lower + gen.uniform(0.1, 10, dim)
    space = ParameterSpace(tuple(f"x{i}" for i in range(dim)), lower, upper)
    sampler = {"lhc": sample_lhc, "mc": sample_mc, "sobol": sample_sobol}[scheme]
    design = sampler(space, n_points, RandomStream(seed))
    assert np.all(design >= space.lower - 1e-12)
    assert np.all(design <= space.upper + 1e-12)


@given(seed=st.integers(0, 10_000), half=st.integers(1, 16), dim=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_slhc_bounds_and_symmetry(seed, half, dim):
    gen = np.random.default_rng(seed)
    lower = gen.uniform(-5, 0, dim)
    upper = lower + gen.uniform(0.1, 10, dim)
    space = ParameterSpace(tuple(f"x{i}" for i in range(dim)), lower, upper)
    n = 2 * half
    design = sample_slhc(space, n, RandomStream(seed))
    assert np.all(design >= space.lower - 1e-12)
    assert np.all(design <= space.upper + 1e-12)
    sums = design[:half] + design[half:]
    assert np.allclose(sums, space.lower + space.upper, atol=1e-9)
