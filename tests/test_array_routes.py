"""The array routes against the loops they replace.

Slice integrals combine complex inner products of the split functions,
taken from the closed-form monomial norms or summed on a grid; the
reference here is the per-pair route: the Hamilton product conj(g) f of
two grids, weighted and summed component by component.  The coefficient
maps add one whole shifted row per term; the reference is the scalar
Quaternion loop, which they must equal bit for bit.  C^d Grams build no
grid and are exactly Hermitian; each entry agrees with the per-pair inner
product.  The transforms take a whole grid of points and run on each
point's slice; the references are the scalar slice decomposition and, per
point, the scalar quaternion Horner loop of the image series or the node
sum of the scalar kernel against phi.  Polynomial
integrals are exact at every rule order; the references are the same
sums on the ``quad_order`` grid, exact for their degrees, or, for the
direct route, on the smallest exact grid that it uses.
"""

import math
import re

import numpy as np
import pytest
from conftest import random_quaternion

from rbffock import (CPowerSeries, FockCSpace, FockSliceSpace, GaussSeries,
                     HermiteCoeffFunction, HermiteCoeffFunctionD,
                     ImaginaryUnit, QPowerSeries, Quaternion, RBFSliceSpace,
                     beta_coeffs, cauchy_mul, gauss_hermite, hermite_psi_all,
                     intrinsic_exp_sq, multi_indices, rbf_sb_image_series_d,
                     rbf_sb_transform, rbf_sb_transform_d, sb_image_series,
                     sb_kernel, sb_transform, slice_decompose)
from rbffock import _quatarray as qa
from rbffock import spaces, transforms
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


def pair_integral_reference(space, vals_f, vals_g, order=None):
    """(nu/pi) sum w conj(g) f by qmul and one compensated sum per component,
    on the grid of the rule of ``order`` (default the space's
    ``quad_order``)."""
    integrand = qa.qmul(qa.qconj(vals_g), vals_f)
    rule = gauss_hermite(order or space.quad_order, space.nu)
    weights = rule.weights[:, None] * rule.weights[None, :]
    return np.array([space.nu / math.pi
                     * compensated_sum((weights * integrand[..., c]).ravel())
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
    grid = spaces._grid(space.quad_order, space.nu)
    vals = [f.eval_slice_grid(grid.z, unit) for f in mixed_series]
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


SMALL_RULE_DEGREES = (0, 1, 3, 7, 8, 15, 22, 30)


@pytest.mark.parametrize("order", [8, 40, 80, 160])
@pytest.mark.parametrize("kind", ["fock", "rbf"])
def test_small_rule_slice_integrals_match_full_order_reference(kind, order):
    """Inner products, norms and Grams are exact; the reference is the
    per-pair sum on the ``quad_order`` grid, exact for these degrees."""
    rng = np.random.default_rng(order)
    unit = UNITS["(1,2,3)"]
    # a Gram needs twice its highest degree within 2 * order - 1
    series = [random_series(rng, d) for d in SMALL_RULE_DEGREES if d < order]
    if kind == "fock":
        space = fock = FockSliceSpace(1.3, unit, order)
        members = series
    else:
        space = RBFSliceSpace(1.2, unit, order)
        fock = space._fock
        members = [GaussSeries(1.2, f) for f in series]
    grid = spaces._grid(fock.quad_order, fock.nu)
    vals = [f.eval_slice_grid(grid.z, unit) for f in series]
    want = np.array([[pair_integral_reference(fock, vf, vg) for vg in vals]
                     for vf in vals])
    gram = space.gram(members)
    norms = want[np.arange(len(vals)), np.arange(len(vals)), 0]
    scale = np.sqrt(norms[:, None] * norms[None, :])
    assert (np.abs(gram - want).max(axis=-1) <= 1e-14 * scale).all()
    for a, f in enumerate(members):
        assert abs(space.norm_sq(f) - want[a, a, 0]) <= 1e-14 * scale[a, a]
        for b, g in enumerate(members):
            got = np.array(space.inner_product(f, g).to_list())
            assert np.abs(got - want[a, b]).max() <= 1e-14 * scale[a, b]


def cd_reference_table(alpha, order, degree):
    """T[n, m] = sum W z^n conj(z)^m on the order-``order`` grid, one
    compensated sum per entry and component."""
    rule = gauss_hermite(order, alpha)
    x, w = rule.nodes, rule.weights
    z = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel()
    table = np.empty((degree + 1, degree + 1), dtype=complex)
    for n in range(degree + 1):
        for m in range(degree + 1):
            v = z ** n * np.conj(z) ** m
            table[n, m] = complex(compensated_sum(weights * v.real),
                                  compensated_sum(weights * v.imag))
    return table


@pytest.mark.parametrize("dim, order", [(1, 8), (1, 40), (1, 80), (1, 160),
                                        (2, 8), (2, 16), (2, 32)])
def test_small_rule_cd_tables_match_full_order_reference(dim, order):
    """C^d inner products, norms and Grams are exact; the reference is the
    term-pair sum of the moment table on the ``quad_order`` grid, exact for
    these degrees."""
    rng = np.random.default_rng(order + dim)
    alpha = 1.5
    tops = [t for t in ((0, 2, 5, 9, 15, 22, 30) if dim == 1 else (0, 2, 4, 7))
            if t < order]
    functions = []
    for top in tops:
        indices = {tuple(rng.integers(0, top + 1, dim)) for _ in range(5)}
        indices.add((top,) + (0,) * (dim - 1))
        functions.append(CPowerSeries(dim, tuple(
            (idx, complex(*rng.uniform(-1.0, 1.0, 2))) for idx in indices)))
    space = FockCSpace(alpha, dim, order)
    degree = tops[-1]
    ref = cd_reference_table(alpha, order, degree)

    def reference(f, g):
        terms = [(kf, kg, cf * cg.conjugate())
                 for kf, cf in f.terms for kg, cg in g.terms]
        values = [c * np.prod([ref[n, m] for n, m in zip(kf, kg)])
                  for kf, kg, c in terms]
        return (alpha / math.pi) ** dim * complex(
            math.fsum(v.real for v in values), math.fsum(v.imag for v in values))

    want = np.array([[reference(f, g) for g in functions] for f in functions])
    scale = np.sqrt(np.abs(np.diag(want))[:, None] * np.abs(np.diag(want))[None, :])
    assert (np.abs(space.gram(functions) - want) <= 1e-14 * scale).all()
    for a, f in enumerate(functions):
        assert abs(space.norm_sq(f) - want[a, a].real) <= 1e-14 * scale[a, a]
        for b, g in enumerate(functions):
            assert abs(space.inner_product(f, g) - want[a, b]) <= 1e-14 * scale[a, b]


def test_reproduce_is_self_consistent_under_order_doubling():
    """reproduce integrates a kernel section, no polynomial, on the
    ``quad_order`` grid: orders 80 and 160 are two computations that agree."""
    unit = UNITS["(1,1,0)"]
    values = []
    for order in (80, 160):
        fock = FockSliceSpace(1.1, unit, order)
        rbf = RBFSliceSpace(1.3, unit, order)
        c2 = FockCSpace(0.9, 2, order)
        draw = np.random.default_rng(32)
        row = []
        for _ in range(5):
            f = random_series(draw, 8)
            w = Quaternion(*draw.uniform(-1.5, 1.5, 4))
            row += fock.reproduce(f, w).to_list()
            row += rbf.reproduce(GaussSeries(1.3, f), w).to_list()
            g = CPowerSeries(2, tuple((idx, complex(*draw.uniform(-1, 1, 2)))
                                      for idx in multi_indices(2, 4)))
            row.append(c2.reproduce(g, draw.uniform(-1.5, 1.5, 2)
                                    + 1j * draw.uniform(-1.5, 1.5, 2)))
        values.append(np.array(row))
    lo, hi = values
    assert np.abs(lo - hi).max() <= 1e-12 * (1.0 + np.abs(hi).max())
    assert not np.array_equal(lo, hi)


def test_slice_gram_of_nothing_is_empty():
    assert FockSliceSpace(1.0, quad_order=8).gram([]).shape == (0, 0, 4)


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS)
def test_reproduce_and_direct_route_match_reference(unit):
    rng = np.random.default_rng(11)
    space = RBFSliceSpace(1.0, unit, 60)
    fock = space._fock
    f, g = (GaussSeries(1.0, random_series(rng, d)) for d in (6, 12))
    w = Quaternion(0.3, -0.2, 0.4, 0.1)
    z, _ = spaces._grid(fock.quad_order, fock.nu)
    kvals = qa.star_exp_grid(fock.nu, z, unit, w)
    want = pair_integral_reference(fock, f.series.eval_slice_grid(z, unit),
                                   kvals)
    got = fock.reproduce(f.series, w)
    assert np.abs(np.array(got.to_list()) - want).max() <= 1e-14 * np.abs(want).max()

    # the direct route's integrand is a polynomial of degree 6 + 12: its
    # grid is the smallest exact one, of order 10
    z, _ = spaces._grid(10, fock.nu)
    x, y = z.real, z.imag
    comp = np.exp(-4.0 * y ** 2 + fock.nu * (x ** 2 + y ** 2))
    vals_f = f.eval_slice_grid(z, unit)
    vals_g = g.eval_slice_grid(z, unit)
    want = pair_integral_reference(fock, vals_f * comp[..., None], vals_g, 10)
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

    def refuse(*_, **__):
        raise AssertionError("a Gram built a grid")

    for name in ("gauss_hermite", "_grid"):
        monkeypatch.setattr(spaces, name, refuse)
    gram = space.gram(functions)
    # one matrix product, symmetrized: exactly Hermitian, real diagonal
    assert np.array_equal(gram, gram.conj().T)
    assert not np.diag(gram).imag.any()
    # the inner product and norm, on the pair's own multi-indices, agree
    for a, f in enumerate(functions):
        assert abs(gram[a, a].real - space.norm_sq(f)) <= 1e-14 * gram[a, a].real
        for b, g in enumerate(functions):
            scale = math.sqrt(gram[a, a].real * gram[b, b].real)
            assert abs(gram[a, b] - space.inner_product(f, g)) <= 1e-14 * scale


def quaternion_grid(rng, count, scale=1.5):
    """Random points, some of them real, on the coordinate axes, or with
    a subnormal vector part."""
    q = rng.uniform(-scale, scale, (count, 4))
    q[::7, 1:] = 0.0
    q[1::11, 2:] = 0.0
    q[2::13, 1:] *= 1e-310
    return q


def test_slice_decompose_arr_equals_slice_decompose():
    rng = np.random.default_rng(22)
    q = np.concatenate([quaternion_grid(rng, 300),
                        [[1.0, 5e-324, 0.0, 0.0], [0.0, 3e-320, -4e-320, 1e-322],
                         [2.0, 1e300, 1e300, 1e300], [-0.0, -0.0, 0.0, -0.0]]])
    z, units = qa.slice_decompose_arr(q)
    for i, point in enumerate(q):
        zs, unit = slice_decompose(Quaternion(*point))
        # bitwise, so a -0.0 real part must stay -0.0
        assert z[i:i + 1].tobytes() == np.array([zs]).tobytes()
        assert units[i].tolist() == [unit.x, unit.y, unit.z]
    z2, units2 = qa.slice_decompose_arr(q.reshape(2, -1, 4))
    assert z2.ravel().tobytes() == z.tobytes()
    assert np.array_equal(units2.reshape(-1, 3), units)


@pytest.mark.parametrize("bad", [[0.0, 1.7e308, 1.7e308, 0.0],
                                 [0.0, math.nan, 0.0, 0.0],
                                 [math.inf, 0.0, 0.0, 0.0]],
                         ids=["norm-beyond-range", "nan", "inf"])
def test_slice_decompose_arr_refuses_what_the_scalar_form_refuses(bad):
    with pytest.raises(ValueError):
        slice_decompose(Quaternion(*bad))
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        qa.slice_decompose_arr(np.array([[0.5, 0.1, 0.0, 0.0], bad]))


def sb_quadrature_reference(nu, phi, q, normalization, order):
    """sum_m w_m exp(nu_rule x_m^2) K(q, x_m) phi(x_m), scalar per node."""
    nu_rule = 0.5 * (nu + phi.nu)
    rule = gauss_hermite(order, nu_rule)
    phis = hermite_psi_all(phi.nu, phi.degree, rule.nodes).T @ np.array(
        [c.to_list() for c in phi.coeffs])
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for x, w, f in zip(rule.nodes, rule.weights, phis):
        total = total + (sb_kernel(nu, q, x, normalization) * Quaternion(*f)
                         * (w * math.exp(nu_rule * x * x)))
    return total


@pytest.mark.parametrize("normalization", ["unitary", "literal"])
@pytest.mark.parametrize("route", ["auto", "quadrature"])
def test_quaternion_transforms_match_per_point_reference(route, normalization):
    rng = np.random.default_rng(23)
    gamma = 1.2
    nu = 2.0 / gamma ** 2
    phi_nu = nu if route == "auto" else 0.7  # auto is exact at nu
    phi = HermiteCoeffFunction(phi_nu, tuple(random_quaternion(rng)
                                             for _ in range(10)))
    q = quaternion_grid(rng, 300)  # more than one block of points
    fock = sb_transform(nu, phi, q, normalization, route, 40)
    rbf = rbf_sb_transform(gamma, phi, q, normalization, route, 40)
    assert fock.shape == rbf.shape == (300, 4)
    assert np.array_equal(
        sb_transform(nu, phi, q.reshape(3, 100, 4), normalization, route, 40),
        fock.reshape(3, 100, 4))
    fock_tol = 1e-14 * np.abs(fock).max()
    rbf_tol = 1e-14 * np.abs(rbf).max()
    # real, axis, subnormal and general points, and each block's first
    # and last point
    block = transforms._BLOCK_POINTS
    for i in sorted({*range(0, 300, 5), block - 1, block, 2 * block - 1,
                     2 * block, 299}):
        point = Quaternion(*q[i])
        one = sb_transform(nu, phi, point, normalization, route, 40)
        assert isinstance(one, Quaternion)
        assert np.abs(fock[i] - one.to_list()).max() <= fock_tol
        if route == "auto":
            want = sb_image_series(nu, phi, normalization).eval(point)
        else:
            want = sb_quadrature_reference(nu, phi, point, normalization, 40)
        assert np.abs(fock[i] - want.to_list()).max() <= fock_tol
        want = intrinsic_exp_sq(gamma, point) * want
        assert np.abs(rbf[i] - want.to_list()).max() <= rbf_tol
        one = rbf_sb_transform(gamma, phi, point, normalization, route, 40)
        assert np.abs(rbf[i] - one.to_list()).max() <= rbf_tol


@pytest.mark.parametrize("route", ["auto", "quadrature"])
def test_slice_transform_decomposes_once_and_joins_once(route, monkeypatch):
    """Both routes are complex arithmetic on each point's slice: one slice
    decomposition of all the points and one Hamilton product per call."""
    calls = []
    for name in ("slice_decompose_arr", "qmul"):
        def counted(*args, _name=name, _original=getattr(qa, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(qa, name, counted)
    rng = np.random.default_rng(25)
    phi = HermiteCoeffFunction(2.0 if route == "auto" else 0.7, tuple(
        random_quaternion(rng) for _ in range(10)))
    for q in (quaternion_grid(rng, 300), Quaternion(0.3, -0.2, 0.5, 0.1)):
        calls.clear()
        sb_transform(2.0, phi, q, "unitary", route, 40)
        assert calls == ["slice_decompose_arr", "qmul"]


def test_exact_routes_build_no_rule(monkeypatch):
    """At the matching Hermite scale every transform takes the exact route,
    which builds no quadrature rule."""
    def refuse(*_, **__):
        raise AssertionError("an exact route built a quadrature rule")

    monkeypatch.setattr(transforms, "_sb_rule", refuse)
    rng = np.random.default_rng(26)
    phi = HermiteCoeffFunction(2.0, tuple(random_quaternion(rng)
                                          for _ in range(6)))
    q = quaternion_grid(rng, 20)
    assert sb_transform(2.0, phi, q).shape == (20, 4)
    assert rbf_sb_transform(1.0, phi, q).shape == (20, 4)
    phi_d = HermiteCoeffFunctionD(2.0, 2, (((1, 0), 1.0), ((0, 2), 0.5j)))
    z = q[:, :2] + 1j * q[:, 2:]
    assert rbf_sb_transform_d(1.0, 2, phi_d, z).shape == (20,)


@pytest.mark.parametrize("route", ["auto", "quadrature"])
def test_c2_transform_matches_per_point_calls(route):
    rng = np.random.default_rng(24)
    gamma, dim = 1.0, 2
    indices = list(multi_indices(dim, 4))
    phi = HermiteCoeffFunctionD(2.0 / gamma ** 2, dim, tuple(
        (idx, complex(*rng.uniform(-1.0, 1.0, 2))) for idx in indices))
    z = rng.uniform(-1.0, 1.0, (30, dim)) + 1j * rng.uniform(-1.0, 1.0, (30, dim))
    values = rbf_sb_transform_d(gamma, dim, phi, z, route, 24)
    assert values.shape == (30,)
    tol = 1e-14 * np.abs(values).max()
    series = rbf_sb_image_series_d(gamma, phi)
    for point, value in zip(z, values):
        one = rbf_sb_transform_d(gamma, dim, phi, list(point), route, 24)
        assert isinstance(one, complex)
        if route == "quadrature":
            # the same per-point integral, so the same bytes
            assert one == value
        assert abs(value - one) <= tol
        assert abs(value - series.eval(point)) <= 1e-12 * np.abs(values).max()
