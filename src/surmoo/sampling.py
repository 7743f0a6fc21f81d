"""Initial-design generators: symmetric Latin hypercube (default), Latin
hypercube, Monte Carlo, and Sobol sequences.

All samplers are pure functions of (space, N, stream) and return an (N, n)
array of points inside the bounds. SLHC and LHC place exactly one point per
stratum in every one-dimensional projection; SLHC additionally emits points
in center-mirrored pairs with mirrored within-stratum jitter, so pair sums
equal lower+upper up to rounding.

The Sobol sampler draws the unscrambled base-2 sequence in Gray-code order
with 30-bit direction numbers, so every coordinate is an integer below 2**30
times 2**-30. The direction numbers of the first `SOBOL_MAX_DIM` dimensions
(primitive polynomials and initial values of the Joe-Kuo table
new-joe-kuo-6.21201; Joe and Kuo, SIAM J. Sci. Comput. 30(5), 2008) are the
text table `_SOBOL_TABLE` below, and the Bratley-Fox recurrence (ACM TOMS
14(1), 1988) extends each row to 30 bits. scipy's `qmc.Sobol` uses the same
table and bit width, so the points equal its
``Sobol(d, scramble=False).random_base2(m)[:n]`` bit for bit; scipy is not
imported.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import ParameterSpace, RandomStream

__all__ = [
    "sample_slhc",
    "sample_lhc",
    "sample_mc",
    "sample_sobol",
    "get_sampler",
    "check_design_size",
    "SAMPLER_SCHEMES",
]

SOBOL_MAX_DIM = 64
SOBOL_BITS = 30

# One row per dimension: the primitive polynomial, whose bits are its
# coefficients from x**s down to 1 (so its degree s is its bit length minus
# one), then the initial direction numbers m_1..m_s; dimension 0 has none.
# Printed once from scipy's `_sobol_direction_numbers.npz` (the first 64
# `poly` entries and the first s `vinit` values of each row). Kept as text
# and parsed when a design is drawn, so a process that never draws one holds
# a single string, not 500 integer objects.
_SOBOL_TABLE = """\
1
3 1
7 1 3
11 1 3 1
13 1 1 1
19 1 1 3 3
25 1 3 5 13
37 1 1 5 5 17
41 1 1 5 5 5
47 1 1 7 11 19
55 1 1 5 1 1
59 1 1 1 3 11
61 1 3 5 5 31
67 1 3 3 9 7 49
91 1 1 1 15 21 21
97 1 3 1 13 27 49
103 1 1 1 15 7 5
109 1 3 1 15 13 25
115 1 1 5 5 19 61
131 1 3 7 11 23 15 103
137 1 3 7 13 13 15 69
143 1 1 3 13 7 35 63
145 1 3 5 9 1 25 53
157 1 3 1 13 9 35 107
167 1 3 1 5 27 61 31
171 1 1 5 11 19 41 61
185 1 3 5 3 3 13 69
191 1 1 7 13 1 19 1
193 1 3 7 5 13 19 59
203 1 1 3 9 25 29 41
211 1 3 5 13 23 1 55
213 1 3 7 3 13 59 17
229 1 3 1 3 5 53 69
239 1 1 5 5 23 33 13
241 1 1 7 7 1 61 123
247 1 1 7 9 13 61 49
253 1 3 3 5 3 55 33
285 1 3 1 15 31 13 49 245
299 1 3 5 15 31 59 63 97
301 1 3 1 11 11 11 77 249
333 1 3 1 11 27 43 71 9
351 1 1 7 15 21 11 81 45
355 1 3 7 3 25 31 65 79
357 1 3 1 1 19 11 3 205
361 1 1 5 9 19 21 29 157
369 1 3 7 11 1 33 89 185
391 1 3 3 3 15 9 79 71
397 1 3 7 11 15 39 119 27
425 1 1 3 1 11 31 97 225
451 1 1 1 3 23 43 57 177
463 1 3 7 7 17 17 37 71
487 1 3 1 5 27 63 123 213
501 1 1 3 5 11 43 53 133
529 1 3 5 5 29 17 47 173 479
539 1 3 3 11 3 1 109 9 69
545 1 1 1 5 17 39 23 5 343
557 1 3 1 5 25 15 31 103 499
563 1 1 1 11 11 17 63 105 183
601 1 1 5 11 9 29 97 231 363
607 1 1 5 15 19 45 41 7 383
617 1 3 7 7 31 19 83 137 221
623 1 1 1 3 23 15 111 223 83
631 1 1 5 13 31 15 55 25 161
637 1 1 3 13 25 47 39 87 257
"""


def _scale(unit: np.ndarray, space: ParameterSpace) -> np.ndarray:
    return space.lower + unit * space.span


def sample_slhc(space: ParameterSpace, n_points: int, stream: RandomStream) -> np.ndarray:
    """Symmetric Latin hypercube design.

    Requires an even ``n_points`` so every point has a mirror partner
    p' = lower + upper - p. Strata come in complementary pairs
    {s, N-1-s}; the mirror reuses the partner stratum with jitter 1-u,
    which makes the symmetry exact in unit coordinates.
    """
    check_design_size("slhc", n_points)
    rng = stream.generator()
    n = space.dim
    half = n_points // 2
    unit = np.empty((n_points, n))
    for j in range(n):
        pair_order = rng.permutation(half)
        flip = rng.random(half) < 0.5
        strata = np.where(flip, n_points - 1 - pair_order, pair_order)
        jitter = rng.random(half)
        unit[:half, j] = (strata + jitter) / n_points
        unit[half:, j] = (n_points - strata - jitter) / n_points
    return _scale(unit, space)


def sample_lhc(space: ParameterSpace, n_points: int, stream: RandomStream) -> np.ndarray:
    """Latin hypercube: one uniformly jittered point per stratum and axis."""
    check_design_size("lhc", n_points)
    rng = stream.generator()
    n = space.dim
    unit = np.empty((n_points, n))
    for j in range(n):
        strata = rng.permutation(n_points)
        unit[:, j] = (strata + rng.random(n_points)) / n_points
    return _scale(unit, space)


def sample_mc(space: ParameterSpace, n_points: int, stream: RandomStream) -> np.ndarray:
    """Independent uniform samples over the box."""
    check_design_size("mc", n_points)
    rng = stream.generator()
    unit = rng.random((n_points, space.dim))
    return _scale(unit, space)


def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, SOBOL_BITS) direction numbers, column c shifted left by
    SOBOL_BITS - 1 - c so each is an integer below 2**SOBOL_BITS."""
    v = np.ones((dim, SOBOL_BITS), dtype=np.uint64)
    rows = _SOBOL_TABLE.splitlines()
    for d in range(1, dim):
        poly, *m = map(int, rows[d].split())
        s = len(m)
        # Bratley-Fox: m_j = 2 a_1 m_{j-1} ^ ... ^ 2**s m_{j-s} ^ m_{j-s}
        for j in range(s, SOBOL_BITS):
            new = m[j - s]
            for k in range(s):
                if (poly >> (s - 1 - k)) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        v[d] = m
    return v << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint64)


def sample_sobol(space: ParameterSpace, n_points: int, stream: RandomStream) -> np.ndarray:
    """First ``n_points`` of the unscrambled base-2 Sobol sequence.

    Point i is the XOR of the direction numbers picked by the set bits of
    its Gray code i ^ (i >> 1), times 2**-30: the 30-bit Joe-Kuo sequence,
    bit for bit equal to scipy's ``qmc.Sobol(d, scramble=False)``. Dimensions
    above SOBOL_MAX_DIM fall back to a Latin hypercube with a warning;
    initial designs beyond that size gain nothing from Sobol.
    """
    check_design_size("sobol", n_points)
    if space.dim > SOBOL_MAX_DIM:
        warnings.warn(
            f"Sobol sampler supports up to {SOBOL_MAX_DIM} dimensions; "
            f"falling back to Latin hypercube for n={space.dim}",
            stacklevel=2,
        )
        return sample_lhc(space, n_points, stream)
    v = _direction_numbers(space.dim)
    gray = np.arange(n_points, dtype=np.uint64)
    gray ^= gray >> 1
    quasi = np.zeros((n_points, space.dim), dtype=np.uint64)
    for bit in range((n_points - 1).bit_length()):
        quasi[(gray >> bit) & 1 == 1] ^= v[:, bit]
    unit = quasi * 2.0**-SOBOL_BITS
    return _scale(unit, space)


SAMPLER_SCHEMES = {
    "slhc": sample_slhc,
    "lhc": sample_lhc,
    "mc": sample_mc,
    "sobol": sample_sobol,
}


def get_sampler(scheme: str):
    try:
        return SAMPLER_SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown sampling scheme {scheme!r}; valid: {sorted(SAMPLER_SCHEMES)}"
        ) from None


def check_design_size(scheme: str, n_points: int) -> None:
    """Raise ``ValueError`` unless ``scheme`` can draw ``n_points`` points.

    Each sampler checks its count with this, and `RunConfig` calls it, so a
    design that cannot be drawn is a config error, not a failed run.
    """
    get_sampler(scheme)
    if scheme == "slhc":
        if n_points < 2:
            raise ValueError("SLHC needs at least 2 points")
        if n_points % 2 != 0:
            raise ValueError(
                f"SLHC needs an even sample count for symmetry pairing; use {n_points + 1}"
            )
    elif n_points < 1:
        raise ValueError("need at least 1 point")
    elif scheme == "sobol" and n_points > 2**SOBOL_BITS:
        raise ValueError(f"Sobol designs hold at most 2**{SOBOL_BITS} points")
