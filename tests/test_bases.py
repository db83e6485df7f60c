import math

import numpy as np
import pytest

from rbffock import (Quaternion, gauss_hermite, hermite_h, hermite_psi,
                     hermite_psi_all, integrate_rd, rbf_basis_c, rbf_basis_d,
                     rbf_basis_q)


class TestHermiteH:
    def test_order_zero_and_one(self):
        xs = np.linspace(-2, 2, 9)
        assert np.array_equal(hermite_h(1.7, 0, xs), np.ones(9))
        assert hermite_h(1.7, 1, xs) == pytest.approx(2 * 1.7 * xs, rel=1e-15)

    def test_reduces_to_physicists_hermite(self):
        # nu = 1: h_3(x) = H_3(x) = 8x^3 - 12x
        xs = np.linspace(-1.5, 1.5, 7)
        assert hermite_h(1.0, 3, xs) == pytest.approx(8 * xs ** 3 - 12 * xs,
                                                      rel=1e-13)

    def test_weighted_norm_via_quadrature(self):
        # squared norm against exp(-nu x^2) dx is 2^n nu^n n! sqrt(pi/nu)
        for nu, n in [(1.0, 2), (2.0, 4), (0.7, 5)]:
            rule = gauss_hermite(40, nu)
            table = [hermite_h(nu, n, rule.nodes) ** 2 + 0j]
            val = integrate_rd(rule.weights, [table], [((0,), 1.0)])
            want = 2 ** n * nu ** n * math.factorial(n) * math.sqrt(math.pi / nu)
            assert val.real == pytest.approx(want, rel=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            hermite_h(1.0, 65, 0.0)
        with pytest.raises(ValueError):
            hermite_h(-1.0, 2, 0.0)


class TestHermitePsi:
    def test_ground_state_value(self):
        assert hermite_psi(2.0, 0, 0.0) == pytest.approx((2.0 / math.pi) ** 0.25,
                                                         rel=1e-15)
        assert hermite_psi(math.pi, 0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_matches_direct_normalization(self):
        nu, n = 1.3, 6
        xs = np.linspace(-2, 2, 11)
        norm = math.sqrt(2 ** n * nu ** n * math.factorial(n)
                         * math.sqrt(math.pi / nu))
        direct = hermite_h(nu, n, xs) * np.exp(-nu * xs ** 2 / 2) / norm
        assert hermite_psi(nu, n, xs) == pytest.approx(direct, rel=1e-12)

    def test_orthonormal_in_l2(self):
        nu = 2.0
        rule = gauss_hermite(80, nu)
        x = rule.nodes
        psis = hermite_psi_all(nu, 12, x)
        comp = np.exp(nu * x * x)
        gram = np.einsum("m,nm,km->nk", rule.weights * comp, psis, psis)
        assert np.abs(gram - np.eye(13)).max() < 1e-9

    def test_all_consistent_with_single(self):
        vals = hermite_psi_all(0.9, 5, np.array([0.4, -1.1]))
        for n in range(6):
            assert vals[n] == pytest.approx(
                hermite_psi(0.9, n, np.array([0.4, -1.1])), rel=1e-15)

    def test_stable_at_max_order(self):
        assert math.isfinite(hermite_psi(1.0, 64, 8.0))


class TestRBFBasis:
    def test_zeroth_at_origin(self):
        assert abs(rbf_basis_q(1.0, 0, Quaternion(0, 0, 0, 0))
                   - Quaternion.from_real(1.0)) == 0.0
        assert rbf_basis_c(2.0, 0, 0j) == 1.0

    def test_first_order_value(self):
        # gamma = sqrt(2), n = 1, q = 1: sqrt(2/(2*1)) * 1 * exp(-1/2)
        got = rbf_basis_q(math.sqrt(2.0), 1, Quaternion.from_real(1.0))
        assert got.w == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert abs(got - Quaternion.from_real(got.w)) == 0.0

    def test_quaternionic_matches_complex_on_slice(self):
        from rbffock import ImaginaryUnit, SlicePoint
        unit = ImaginaryUnit.from_vector(0.0, 1.0, 1.0)
        z = complex(0.4, -0.8)
        q = SlicePoint(z.real, z.imag, unit).to_quaternion()
        for n in (0, 2, 5):
            zval = rbf_basis_c(1.5, n, z)
            qval = rbf_basis_q(1.5, n, q)
            ref = SlicePoint(zval.real, zval.imag, unit).to_quaternion()
            assert abs(qval - ref) <= 1e-14 * (1 + abs(ref))

    def test_multi_index_reduces_to_1d(self):
        got = rbf_basis_d(math.sqrt(2.0), (1, 0), (1.0 + 0j, 0j))
        assert got == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_multi_index_is_coordinate_product(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            z = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (3, 2)))
            index = tuple(rng.integers(0, 5, 3))
            prod = 1.0 + 0.0j
            for nl, zl in zip(index, z):
                prod *= rbf_basis_c(1.2, nl, zl)
            assert rbf_basis_d(1.2, index, z) == prod

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rbf_basis_d(1.0, (1, 2), (1.0 + 0j,))
