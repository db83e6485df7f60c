"""The array routes against the loops they replace.

Slice integrals are one weighted matrix product per stack of grids; the
reference here is the per-pair route: the Hamilton product conj(g) f of
two grids, weighted and summed component by component.  The coefficient
maps add one whole shifted row per term; the reference is the scalar
Quaternion loop, which they must equal bit for bit.  C^d Grams build
their moment table once; each entry must equal the per-pair inner product
bit for bit.
"""

import math

import numpy as np
import pytest
from conftest import random_quaternion

from rbffock import (CPowerSeries, FockCSpace, FockSliceSpace, GaussSeries,
                     ImaginaryUnit, QPowerSeries, Quaternion, RBFSliceSpace,
                     beta_coeffs, cauchy_mul)
from rbffock import _quatarray as qa
from rbffock.quadrature import compensated_sum

UNITS = {
    "i": ImaginaryUnit(1.0, 0.0, 0.0),
    "(1,1,0)": ImaginaryUnit.from_vector(1.0, 1.0, 0.0),
    "(1,2,3)": ImaginaryUnit.from_vector(1.0, 2.0, 3.0),
    # slice_frame builds J from the axis least aligned with I; these two
    # fall on either side of the tie between the y and z axes
    "tie-z": ImaginaryUnit.from_vector(1.0, 0.5 + 1e-9, 0.5),
    "tie-y": ImaginaryUnit.from_vector(1.0, 0.5, 0.5 + 1e-9),
}


def pair_integral_reference(space, vals_f, vals_g):
    """(nu/pi) sum w conj(g) f by qmul and one compensated sum per component."""
    integrand = qa.qmul(qa.qconj(vals_g), vals_f)
    weights = space.rule.weights[:, None] * space.rule.weights[None, :]
    return np.array([space.nu / math.pi * compensated_sum(weights * integrand[..., c])
                     for c in range(4)])


def random_series(rng, degree):
    return QPowerSeries(tuple(random_quaternion(rng) for _ in range(degree + 1)))


@pytest.fixture(scope="module")
def mixed_series():
    rng = np.random.default_rng(7)
    return [random_series(rng, d) for d in (0, 1, 3, 8, 15, 22, 30)]


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS)
def test_slice_gram_matches_per_pair_reference(unit, mixed_series):
    space = FockSliceSpace(1.3, unit, 40)
    gram = space.gram(mixed_series)
    vals = [space._grid_values(f) for f in mixed_series]
    n = len(mixed_series)
    assert gram.shape == (n, n, 4)
    for a in range(n):
        for b in range(n):
            scale = math.sqrt(gram[a, a, 0] * gram[b, b, 0])
            want = pair_integral_reference(space, vals[a], vals[b])
            assert np.abs(gram[a, b] - want).max() <= 1e-14 * scale
            got = space.inner_product(mixed_series[a], mixed_series[b])
            assert np.abs(np.array(got.to_list()) - gram[a, b]).max() <= 1e-14 * scale


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS)
def test_slice_gram_is_exactly_quaternion_hermitian(unit, mixed_series):
    gram = FockSliceSpace(0.7, unit, 40).gram(mixed_series)
    for a in range(len(mixed_series)):
        for b in range(len(mixed_series)):
            assert np.array_equal(gram[b, a], gram[a, b] * qa.CONJ_SIGNS)


def test_slice_gram_of_nothing_is_empty():
    assert FockSliceSpace(1.0, quad_order=8).gram([]).shape == (0, 0, 4)


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS)
def test_reproduce_and_direct_route_match_reference(unit):
    rng = np.random.default_rng(11)
    space = RBFSliceSpace(1.0, unit, 60)
    fock = space._fock
    f, g = (GaussSeries(1.0, random_series(rng, d)) for d in (6, 12))
    w = Quaternion(0.3, -0.2, 0.4, 0.1)
    kvals = qa.star_exp_grid(fock.nu, fock._xg, fock._yg, unit, w)
    want = pair_integral_reference(fock, fock._grid_values(f.series), kvals)
    got = fock.reproduce(f.series, w)
    assert np.abs(np.array(got.to_list()) - want).max() <= 1e-14 * np.abs(want).max()

    comp = np.exp(-4.0 * fock._yg ** 2 + fock.nu * (fock._xg ** 2 + fock._yg ** 2))
    vals_f = f.eval_slice_grid(fock._xg, fock._yg, unit)
    vals_g = g.eval_slice_grid(fock._xg, fock._yg, unit)
    want = pair_integral_reference(fock, vals_f * comp[..., None], vals_g)
    got = space.inner_product_direct(f, g)
    scale = math.sqrt(space.norm_sq(f) * space.norm_sq(g))
    assert np.abs(np.array(got.to_list()) - want).max() <= 1e-13 * scale


def beta_reference(gamma, coeffs, k_max, sign=1):
    """The scalar loop: beta_k = sum_j sign^j a_{k-2j} / (gamma^{2j} j!)."""
    out = []
    for k in range(k_max + 1):
        acc = Quaternion(0.0, 0.0, 0.0, 0.0)
        w = 1.0
        for j in range(k // 2 + 1):
            if j > 0:
                w *= sign / (gamma * gamma * j)
            if k - 2 * j < len(coeffs):
                acc = acc + coeffs[k - 2 * j] * w
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("length, k_max", [(25, 12), (25, 24), (10, 31),
                                           (1, 0), (1, 9)])
def test_beta_coeffs_equal_scalar_loop(sign, length, k_max):
    rng = np.random.default_rng(length + k_max)
    coeffs = [random_quaternion(rng) for _ in range(length)]
    for gamma in (0.6, 1.0, 2.3):
        assert beta_coeffs(gamma, coeffs, k_max, sign) == beta_reference(
            gamma, coeffs, k_max, sign)


def cauchy_reference(f, g, out_degree):
    s = [c.w for c in f.coeffs]
    out = []
    for k in range(out_degree + 1):
        acc = Quaternion(0.0, 0.0, 0.0, 0.0)
        for j in range(max(0, k - g.degree), min(k, f.degree) + 1):
            if s[j] != 0.0:
                acc = acc + g.coeffs[k - j] * s[j]
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("f_degree, g_degree, max_degree",
                         [(4, 7, None), (9, 3, None), (12, 12, 10), (0, 5, None)])
def test_cauchy_mul_equals_scalar_loop(f_degree, g_degree, max_degree):
    rng = np.random.default_rng(f_degree * 31 + g_degree)
    s = rng.uniform(-1.0, 1.0, f_degree + 1)
    s[1::3] = 0.0
    f = QPowerSeries(tuple(s))
    g = random_series(rng, g_degree)
    out_degree = f_degree + g_degree if max_degree is None else max_degree
    assert cauchy_mul(f, g, max_degree).coeffs == cauchy_reference(f, g, out_degree)


@pytest.mark.parametrize("dim", [1, 2])
def test_cd_gram_builds_one_table_and_matches_inner_products(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    functions = []
    for top in (0, 2, 5, 9):
        indices = {tuple(rng.integers(0, top + 1, dim)) for _ in range(4)}
        indices.add((top,) + (0,) * (dim - 1))
        functions.append(CPowerSeries(dim, tuple(
            (idx, complex(*rng.uniform(-1.0, 1.0, 2))) for idx in indices)))
    order = 40 if dim == 1 else 16
    space = FockCSpace(1.5, dim, order)
    builds = []
    powers = FockCSpace._powers

    def counted(self, degree):
        builds.append(degree)
        return powers(self, degree)

    monkeypatch.setattr(FockCSpace, "_powers", counted)
    gram = space.gram(functions)
    assert builds == [9]
    # the table is the one a space builds directly at that degree
    assert np.array_equal(space._moments, FockCSpace(1.5, dim, order)._moment_table(9))
    for a, f in enumerate(functions):
        for b, g in enumerate(functions):
            want = (space.inner_product(f, g) if a <= b
                    else np.conj(space.inner_product(g, f)))
            assert gram[a, b] == want
