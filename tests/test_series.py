import math

import numpy as np
import pytest
from conftest import assert_qclose, random_quaternion

from rbffock import (ImaginaryUnit, QPowerSeries, Quaternion,
                     beta_coeffs, cauchy_mul, intrinsic_exp_sq,
                     multi_indices, multi_order, sequential_norm)
from rbffock.series import CPowerSeries, GaussCSeries

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


class TestQPowerSeries:
    def test_constant(self):
        f = QPowerSeries((Quaternion(0.5, 1, 2, 3),))
        for q in (Quaternion(0, 0, 0, 0), Quaternion(3, -1, 2, 0.5)):
            assert f.eval(q) == Quaternion(0.5, 1, 2, 3)

    def test_single_term_ordering(self):
        # f(q) = q * j evaluated at q = i must give i*j = k, not j*i
        f = QPowerSeries((Quaternion(0, 0, 0, 0), J))
        assert_qclose(f.eval(I), K, tol=0.0)

    def test_exp_sq_series_matches_closed_form(self):
        gamma = 1.0
        f = QPowerSeries.exp_sq(gamma, -1, degree=8)
        q = Quaternion(0.3, 0.4, 0, 0)
        # tail of exp(-z^2) past degree 8: geometric-dominated factorial tail
        t = abs(q) ** 2
        tail = (t ** 5 / math.factorial(5)) / (1.0 - t / 6.0)
        exact = intrinsic_exp_sq(gamma, q)
        assert abs(f.eval(q) - exact) <= tail

    def test_grid_eval_matches_scalar(self):
        rng = np.random.default_rng(3)
        f = QPowerSeries(tuple(random_quaternion(rng) for _ in range(7)))
        unit = ImaginaryUnit.from_vector(1.0, -1.0, 0.5)
        xs = np.array([0.0, 0.5, -1.2])
        ys = np.array([0.3, -0.7, 1.1])
        grid = f.eval_slice_grid(xs, ys, unit)
        for k in range(3):
            from rbffock import SlicePoint
            q = SlicePoint(float(xs[k]), float(ys[k]), unit).to_quaternion()
            assert_qclose(Quaternion(*grid[k]), f.eval(q), tol=1e-14)


class TestCauchyMul:
    def test_identity(self):
        g = QPowerSeries((Quaternion(1, 2, 3, 4), Quaternion(0, 1, -1, 0)))
        out = cauchy_mul(QPowerSeries((Quaternion.from_real(1.0),)), g)
        assert out.coeffs == g.coeffs

    def test_distribute(self):
        s = QPowerSeries.exp_sq(1.0, 1, 0)  # placeholder real series
        s = QPowerSeries((Quaternion.from_real(1), Quaternion.from_real(0),
                          Quaternion.from_real(1)))
        a = QPowerSeries((Quaternion(0, 0, 0, 0), Quaternion.from_real(1)))
        out = cauchy_mul(s, a)
        expected = (0.0, 1.0, 0.0, 1.0)
        assert tuple(c.w for c in out.coeffs) == expected

    def test_exponent_cancellation(self):
        gamma = 1.3
        plus = QPowerSeries.exp_sq(gamma, 1, degree=20)
        minus = QPowerSeries.exp_sq(gamma, -1, degree=20)
        prod = cauchy_mul(plus, minus, max_degree=20)
        assert prod.coeffs[0].w == pytest.approx(1.0, rel=1e-14)
        for c in prod.coeffs[1:]:
            assert abs(c) < 1e-13

    def test_rejects_nonreal_left(self):
        with pytest.raises(ValueError):
            cauchy_mul(QPowerSeries((I,)), QPowerSeries((I,)))


def brute_force_beta(gamma, coeffs, k_max):
    """Independent oracle: convolve with the exponential series directly."""
    out = []
    for k in range(k_max + 1):
        acc = Quaternion(0, 0, 0, 0)
        for j in range(0, k + 1):
            if j % 2 == 1:
                continue
            m = j // 2
            s = 1.0 / (gamma ** (2 * m) * math.factorial(m))
            if k - j < len(coeffs):
                acc = acc + coeffs[k - j] * s
        out.append(acc)
    return out


class TestBetaCoeffs:
    def test_gaussian_collapses_to_one(self):
        # multiplying exp(-q^2/g^2) by exp(+q^2/g^2) leaves 1
        gamma = 0.9
        a = QPowerSeries.exp_sq(gamma, -1, degree=24).coeffs
        betas = beta_coeffs(gamma, a, 12)
        assert_qclose(betas[0], Quaternion.from_real(1.0), tol=1e-14)
        for b in betas[1:]:
            assert abs(b) < 1e-13

    def test_delta_inputs(self):
        gamma = 1.4
        betas = beta_coeffs(gamma, (Quaternion.from_real(1.0),), 9)
        for k, b in enumerate(betas):
            if k % 2 == 0:
                m = k // 2
                assert b.w == pytest.approx(
                    1.0 / (gamma ** (2 * m) * math.factorial(m)), rel=1e-14)
            else:
                assert abs(b) == 0.0
        betas = beta_coeffs(gamma, (Quaternion(0, 0, 0, 0),
                                    Quaternion.from_real(1.0)), 9)
        for k, b in enumerate(betas):
            if k % 2 == 1:
                m = (k - 1) // 2
                assert b.w == pytest.approx(
                    1.0 / (gamma ** (2 * m) * math.factorial(m)), rel=1e-14)
            else:
                assert abs(b) == 0.0

    def test_against_bruteforce_and_cauchy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gamma = rng.uniform(0.6, 1.8)
            coeffs = tuple(random_quaternion(rng) for _ in range(25))
            betas = beta_coeffs(gamma, coeffs, 24)
            oracle = brute_force_beta(gamma, coeffs, 24)
            via_cauchy = cauchy_mul(QPowerSeries.exp_sq(gamma, 1, 48),
                                    QPowerSeries(coeffs), max_degree=24)
            for k in range(25):
                assert abs(betas[k] - oracle[k]) <= 1e-13
                assert abs(betas[k] - via_cauchy.coeffs[k]) <= 1e-13

    def test_sign_roundtrip(self):
        rng = np.random.default_rng(6)
        coeffs = tuple(random_quaternion(rng) for _ in range(12))
        fwd = beta_coeffs(1.1, coeffs, 24)
        back = beta_coeffs(1.1, fwd, 24, sign=-1)
        for k in range(12):
            assert abs(back[k] - coeffs[k]) <= 1e-12


class TestSequentialNorm:
    def test_zero(self):
        assert sequential_norm(1.0, (Quaternion(0, 0, 0, 0),), 10) == 0.0

    def test_gaussian_has_unit_norm(self):
        gamma = 1.2
        a = QPowerSeries.exp_sq(gamma, -1, degree=32).coeffs
        assert sequential_norm(gamma, a, 32) == pytest.approx(1.0, rel=1e-12)

    def test_basis_element_has_unit_norm(self):
        # e_1 = c_1 q exp(-q^2/g^2): Taylor coefficients via the sign-flipped
        # coefficient map
        gamma = 0.8
        c1 = math.sqrt(2.0 / gamma ** 2)
        taylor = beta_coeffs(gamma, (Quaternion(0, 0, 0, 0),
                                     Quaternion.from_real(c1)), 40, sign=-1)
        assert sequential_norm(gamma, taylor, 40) == pytest.approx(1.0, rel=1e-10)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(8)
        coeffs = tuple(random_quaternion(rng) for _ in range(6))
        values = [sequential_norm(1.0, coeffs, k) for k in range(20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_large_k_weight_no_overflow(self):
        coeffs = (Quaternion.from_real(1.0),)
        value = sequential_norm(2.0, coeffs, 60)
        assert math.isfinite(value)

    def test_weight_beyond_double_range_names_gamma(self):
        # gamma^(2k) passes 1e308 at k = 2
        with pytest.raises(OverflowError, match=r"^the sequential norm with "
                           r"gamma=1e\+100 is not finite"):
            sequential_norm(1e100, (Quaternion(1, 0, 0, 0),), 40)


class TestMultiIndex:
    def test_enumeration(self):
        idx = list(multi_indices(2, 3))
        assert len(idx) == 10
        assert idx[0] == (0, 0)
        assert set(multi_order(i) for i in idx) == {0, 1, 2, 3}

    def test_cpower_series_eval(self):
        f = CPowerSeries(2, (((0, 0), 1.0), ((1, 2), 2.0 + 1.0j)))
        z = (0.5 + 0.1j, -0.3 + 0.4j)
        expected = 1.0 + (2 + 1j) * z[0] * z[1] ** 2
        assert f.eval(z) == pytest.approx(expected, rel=1e-15)
        pts = np.array([z, (1.0, 1.0)], dtype=complex)
        vals = f.eval_points(pts)
        assert vals[0] == pytest.approx(expected, rel=1e-15)
        assert vals[1] == pytest.approx(3.0 + 1.0j, rel=1e-15)

    def test_gauss_cseries(self):
        f = GaussCSeries(1.0, CPowerSeries(2, (((1, 0), 1.0),)))
        z = (0.3 + 0.2j, 0.1 - 0.5j)
        zsq = z[0] ** 2 + z[1] ** 2
        assert f.eval(z) == pytest.approx(z[0] * np.exp(-zsq), rel=1e-14)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            CPowerSeries(2, (((1,), 1.0),))
        with pytest.raises(ValueError):
            CPowerSeries(2, (((-1, 0), 1.0),))
