import math

import numpy as np
import pytest

from rbffock import (I_DEFAULT, FockSliceSpace, ImaginaryUnit, QPowerSeries,
                     Quaternion, gauss_hermite, integrate_rd)
from rbffock.quadrature import compensated_sum


def gaussian_moment(k: int, nu: float) -> float:
    """Closed form for integral x^k exp(-nu x^2) dx over the line."""
    if k % 2 == 1:
        return 0.0
    m = k // 2
    double_fact = 1.0
    for j in range(1, m + 1):
        double_fact *= 2 * j - 1
    return double_fact / (2.0 * nu) ** m * math.sqrt(math.pi / nu)


class TestGaussHermite:
    def test_order_one(self):
        rule = gauss_hermite(1, 1.0)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_order_two_closed_form(self):
        # roots of H_2(x) = 4x^2 - 2 are +-1/sqrt(2), weights sqrt(pi)/2
        rule = gauss_hermite(2, 1.0)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)],
                                           rel=1e-14)
        assert rule.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2,
                                             rel=1e-14)

    def test_quartic_moment_scaled(self):
        rule = gauss_hermite(8, 2.0)
        val = float(np.sum(rule.weights * rule.nodes ** 4))
        assert val == pytest.approx((3.0 / 16.0) * math.sqrt(math.pi / 2.0),
                                    rel=1e-13)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 33, 64])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
    def test_moment_exactness(self, order, nu):
        rule = gauss_hermite(order, nu)
        for k in range(2 * order):
            got = float(np.sum(rule.weights * rule.nodes ** k))
            want = gaussian_moment(k, nu)
            if want == 0.0:
                scale = gaussian_moment(k - 1 if k else 0, nu)
                assert abs(got) <= 1e-12 * scale
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_symmetry_and_positivity(self):
        for order in (7, 80, 256):
            rule = gauss_hermite(order, 1.0)
            assert np.all(rule.weights > 0)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])

    def test_extreme_order_constructs(self):
        # past order ~350 the outermost weights sit below the smallest
        # positive double; they underflow to exactly zero but never go
        # negative, and the total mass is preserved
        rule = gauss_hermite(512, 1.0)
        assert np.all(rule.weights >= 0)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert float(np.sum(rule.weights)) == pytest.approx(
            math.sqrt(math.pi), rel=1e-14)

    def test_rule_is_shared_and_read_only(self):
        rule = gauss_hermite(16, 2.0)
        assert gauss_hermite(16, 2.0) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_hermite(0, 1.0)
        with pytest.raises(ValueError):
            gauss_hermite(513, 1.0)
        with pytest.raises(ValueError):
            gauss_hermite(8, -1.0)


class TestIntegrateSlice:
    """Integrals over a slice, through FockSliceSpace's one weighted sum
    over the tensor rule; inner products carry the prefactor nu/pi."""

    def test_gaussian_mass(self):
        one = QPowerSeries.monomial(0)
        val = FockSliceSpace(1.0, I_DEFAULT, 20).inner_product(one, one)
        assert val.w == pytest.approx(1.0, rel=1e-14)
        assert abs(val - Quaternion.from_real(val.w)) == 0.0

    def test_odd_integrand_vanishes(self):
        val = FockSliceSpace(1.0, I_DEFAULT, 20).inner_product(
            QPowerSeries.monomial(1), QPowerSeries.monomial(0))
        assert abs(val) <= 1e-15

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 1), (3, 3), (2, 5), (4, 1)])
    def test_monomial_orthogonality(self, m, n):
        # (nu/pi) * integral conj(q)^m q^n exp(-nu|q|^2) = delta mn n!/nu^n
        nu = 2.0
        val = FockSliceSpace(nu, I_DEFAULT, 40).inner_product(
            QPowerSeries.monomial(n), QPowerSeries.monomial(m))
        expected = math.factorial(n) / nu ** n if m == n else 0.0
        assert val.w == pytest.approx(expected, abs=1e-12 * (1 + expected))
        assert abs(val - Quaternion.from_real(val.w)) <= 1e-12

    def test_slice_independence_of_radial_integrals(self):
        nu = 1.5
        tilted = ImaginaryUnit.from_vector(1.0, 1.0, 1.0)
        on_i = FockSliceSpace(nu, I_DEFAULT, 32)
        on_tilted = FockSliceSpace(nu, tilted, 32)
        for m, n in [(2, 2), (3, 1)]:
            f, g = QPowerSeries.monomial(n), QPowerSeries.monomial(m)
            a = on_i.inner_product(f, g)
            b = on_tilted.inner_product(f, g)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))

    def test_doubling_order_self_consistency(self):
        # reproduce runs on the quad_order rule (inner products are closed
        # forms), so the two orders give different bits
        f = QPowerSeries.monomial(6)
        w = Quaternion(0.6, 0.8, 0.0, 0.0)
        vals = [FockSliceSpace(2.0, I_DEFAULT, order).reproduce(f, w)
                for order in (40, 80)]
        assert vals[0] != vals[1]
        assert abs(vals[0] - vals[1]) <= 1e-12 * (1.0 + abs(vals[1]))


class TestIntegrateRd:
    def test_constant_2d(self):
        rule = gauss_hermite(12, 1.0)
        ones = np.ones((1, rule.order))
        val = integrate_rd(rule.weights, [ones, ones], [((0, 0), 1.0)])
        assert val.real == pytest.approx(math.pi, rel=1e-14)
        assert val.imag == 0.0

    def test_odd_vanishes(self):
        rule = gauss_hermite(12, 1.0)
        x = rule.nodes
        val = integrate_rd(rule.weights, [[x ** 3 + 0j], [np.ones_like(x)]],
                           [((0, 0), 1.0)])
        assert abs(val) <= 1e-15

    def test_hermite_normalization(self):
        # psi_0(x)^2 integrates to 1 once the rule's weight is factored out
        from rbffock import hermite_psi
        nu = 2.0
        rule = gauss_hermite(24, nu)
        x = rule.nodes
        table = [hermite_psi(nu, 0, x) ** 2 * np.exp(nu * x * x) + 0j]
        val = integrate_rd(rule.weights, [table], [((0,), 1.0)])
        assert val.real == pytest.approx(1.0, rel=1e-13)

    def test_dim3_polynomial(self):
        rule = gauss_hermite(6, 1.0)
        x = rule.nodes
        val = integrate_rd(rule.weights, [[x ** 2], [x ** 4], [np.ones_like(x)]],
                           [((0, 0, 0), 1.0)])
        want = (gaussian_moment(2, 1.0) * gaussian_moment(4, 1.0)
                * gaussian_moment(0, 1.0))
        assert val.real == pytest.approx(want, rel=1e-13)


class TestLeadingAxes:
    """Sums over the last axis keep leading (point) axes, and each row gets
    the bits it gets alone."""

    @pytest.mark.parametrize("size", [1, 6400, 65536, 65537, 140000])
    def test_compensated_sum_rows_equal_one_dimensional_sums(self, size):
        rng = np.random.default_rng(size)
        values = rng.normal(size=(2, 3, size)) * 10.0 ** rng.integers(-8, 8, size)
        sums = compensated_sum(values)
        assert sums.shape == (2, 3)
        for index in np.ndindex(2, 3):
            one = compensated_sum(values[index])
            assert isinstance(one, float)
            assert sums[index] == one

    def test_integrate_rd_over_points_equals_point_by_point(self):
        rng = np.random.default_rng(3)
        rule = gauss_hermite(20, 1.3)
        tables = [rng.normal(size=(7, 4, 20)) + 1j * rng.normal(size=(7, 4, 20))
                  for _ in range(2)]
        terms = [((0, 1), 0.5 - 1j), ((3, 2), 2.0), ((1, 1), -1j)]
        values = integrate_rd(rule.weights, tables, terms)
        assert values.shape == (7,)
        for i in range(7):
            one = integrate_rd(rule.weights, [t[i] for t in tables], terms)
            assert isinstance(one, complex)
            assert values[i] == one
