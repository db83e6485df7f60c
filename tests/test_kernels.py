import cmath
import math
import tracemalloc

import numpy as np
import pytest
from conftest import assert_qclose, random_quaternion

from rbffock import (ImaginaryUnit, Quaternion, embed_in_slice,
                     exponential_kernel, fock_kernel_d, intrinsic_exp_sq,
                     kernel_sum_tail_bound, kernel_sum_truncated,
                     polynomial_kernel, rbf_kernel_c, rbf_kernel_d,
                     rbf_kernel_qslice)


class TestComplexKernel:
    def test_real_diagonal_is_one(self):
        assert rbf_kernel_c(1.3, 0.7 + 0j, 0.7 + 0j) == 1.0

    def test_complex_diagonal_grows(self):
        z = 0.4 + 0.9j
        got = rbf_kernel_c(2.0, z, z)
        assert got.real == pytest.approx(math.exp(4 * 0.81 / 4.0), rel=1e-14)
        assert got.imag == pytest.approx(0.0, abs=1e-16)

    def test_real_restriction_is_classical_gaussian(self):
        for x, y, gamma in [(0.3, -1.2, 1.0), (2.0, 0.5, 0.7)]:
            got = rbf_kernel_c(gamma, complex(x), complex(y))
            assert got.real == pytest.approx(
                math.exp(-(x - y) ** 2 / gamma ** 2), rel=1e-14)
            assert got.imag == 0.0


class TestDKernel:
    def test_product_factorization(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            w = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            kd = rbf_kernel_d(1.1, z, w)
            prod = np.prod([rbf_kernel_c(1.1, z[l], w[l]) for l in range(3)])
            assert abs(kd - prod) <= 1e-14 * abs(kd)

    def test_real_restriction(self):
        x = np.array([0.2, -0.5, 1.0])
        y = np.array([1.1, 0.3, -0.4])
        got = rbf_kernel_d(2.0, x.astype(complex), y.astype(complex))
        want = math.exp(-np.sum((x - y) ** 2) / 4.0)
        assert got.real == pytest.approx(want, rel=1e-14)

    def test_fock_factorization(self):
        rng = np.random.default_rng(10)
        gamma = 0.9
        nu = 2.0 / gamma ** 2
        for _ in range(10):
            z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
            w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
            kd = rbf_kernel_d(gamma, z, w)
            env = cmath.exp(-(np.sum(z * z) + np.sum(np.conj(w) ** 2))
                            / gamma ** 2)
            assert abs(kd - env * fock_kernel_d(nu, z, w)) <= 1e-14 * abs(kd)

    def test_fock_trivia(self):
        assert fock_kernel_d(2.0, (1 + 0j,), (0j,)) == 1.0
        assert fock_kernel_d(2.0, (1 + 0j,), (1 + 0j,)).real == pytest.approx(
            math.e ** 2, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rbf_kernel_d(1.0, (1j, 0j), (1j,))
        with pytest.raises(ValueError):
            fock_kernel_d(1.0, (1j, 0j), (1j,))

    @pytest.mark.parametrize("complex_points", [False, True],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_numpy_sum_of_squares_bit_for_bit(self, d,
                                                      complex_points):
        rng = np.random.default_rng(d)
        x = rng.uniform(-2.0, 2.0, (12, d))
        if complex_points:
            x = x + 1j * rng.uniform(-1.0, 1.0, (12, d))
        u = x[:, None] - np.conj(x[None, :])
        want = np.exp(-np.sum(u * u, -1) / (1.3 * 1.3))
        got = rbf_kernel_d(1.3, x[:, None], x[None, :])
        assert got.tobytes() == want.tobytes()

    def test_difference_past_double_range_underflows_without_warning(self):
        # the true value exp(-4e616) underflows to 0; tier-1 turns a
        # RuntimeWarning from the subtraction into an error
        assert rbf_kernel_d(1.0, [1e308], [-1e308]) == 0.0

    def test_gram_peak_memory_is_one_difference_array(self):
        # the (N, N, d) difference is squared in place, so the peak is that
        # array and the (N, N) sum, not two (N, N, d) arrays
        n, d = 400, 3
        x = np.random.default_rng(14).uniform(-1.5, 1.5, (n, d))
        tracemalloc.start()
        try:
            rbf_kernel_d(1.0, x[:, None], x[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (d + 2) * n * n * x.itemsize


class TestQuaternionicKernel:
    def test_real_arguments_collapse(self):
        for q, p, gamma in [(0.5, -0.7, 1.0), (1.2, 0.4, 2.0)]:
            got = rbf_kernel_qslice(gamma, Quaternion.from_real(q),
                                    Quaternion.from_real(p))
            assert_qclose(got, Quaternion.from_real(
                math.exp(-(q - p) ** 2 / gamma ** 2)), tol=1e-13)

    def test_diagonal_identity(self):
        unit = ImaginaryUnit.from_vector(1.0, 2.0, -1.0)
        for x, y, gamma in [(0.5, 1.0, 1.0), (-1.0, 1.5, 2.0)]:
            q = embed_in_slice(complex(x, y), unit)
            got = rbf_kernel_qslice(gamma, q, q)
            assert_qclose(got, Quaternion.from_real(
                math.exp(4 * y * y / gamma ** 2)), tol=1e-12)

    def test_p_zero_leaves_envelope(self):
        q = Quaternion(0.3, 0.1, -0.8, 0.2)
        assert_qclose(rbf_kernel_qslice(1.5, q, Quaternion(0, 0, 0, 0)),
                      intrinsic_exp_sq(1.5, q), tol=1e-15)

    def test_slice_reduction_to_complex_kernel(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            unit = ImaginaryUnit.from_vector(*rng.uniform(-1, 1, 3))
            z = complex(*rng.uniform(-1.2, 1.2, 2))
            w = complex(*rng.uniform(-1.2, 1.2, 2))
            gamma = rng.uniform(0.7, 2.0)
            q = embed_in_slice(z, unit)
            p = embed_in_slice(w, unit)
            kc = rbf_kernel_c(gamma, z, w)
            ref = embed_in_slice(kc, unit)
            assert abs(rbf_kernel_qslice(gamma, q, p) - ref) \
                <= 1e-12 * (1 + abs(ref))

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            q = random_quaternion(rng, 1.2)
            p = random_quaternion(rng, 1.2)
            lhs = rbf_kernel_qslice(1.0, p, q)
            rhs = rbf_kernel_qslice(1.0, q, p).conjugate()
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))


class TestKernelSum:
    def test_zeroth_term_at_origin(self):
        zero = Quaternion(0, 0, 0, 0)
        assert_qclose(kernel_sum_truncated(1.0, zero, zero, 0),
                      Quaternion.from_real(1.0), tol=0.0)

    def test_converges_to_kernel(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            q = random_quaternion(rng)
            p = random_quaternion(rng)
            q = q * (1.5 / max(abs(q), 1.5))
            p = p * (1.5 / max(abs(p), 1.5))
            diff = abs(kernel_sum_truncated(1.0, q, p, 40)
                       - rbf_kernel_qslice(1.0, q, p))
            assert diff <= 1e-10
            bound = kernel_sum_tail_bound(1.0, q, p, 40)
            assert diff <= bound + 1e-13 * (1 + abs(rbf_kernel_qslice(1.0, q, p)))

    @pytest.mark.parametrize("qy, py, n_terms", [(0.8, 0.8, 20), (0.5, 0.9, 16)])
    def test_tail_bound_is_sharp_on_the_imaginary_axis(self, qy, py, n_terms):
        # at purely imaginary q, p on one slice every tail term is positive,
        # so the factorial tail bound is within 1% of the truncation error
        gamma = 0.7
        q, p = Quaternion(0, qy, 0, 0), Quaternion(0, py, 0, 0)
        error = abs(kernel_sum_truncated(gamma, q, p, n_terms)
                    - rbf_kernel_qslice(gamma, q, p))
        assert 0.9 <= error / kernel_sum_tail_bound(gamma, q, p, n_terms) <= 1.0

    def test_tail_bound_beyond_double_range_is_inf(self):
        # the envelope exp(30^2) leaves double range
        zero = Quaternion(0, 0, 0, 0)
        assert kernel_sum_tail_bound(1.0, Quaternion(0, 30, 0, 0), zero,
                                     40) == math.inf

    def test_same_slice_matches_complex_partial_sum(self):
        from rbffock import rbf_basis_c
        unit = ImaginaryUnit.from_vector(1.0, 0.0, 1.0)
        z, w = 0.5 + 0.3j, -0.2 + 0.6j
        q = embed_in_slice(z, unit)
        p = embed_in_slice(w, unit)
        n = 12
        partial = sum(rbf_basis_c(1.0, k, z) * rbf_basis_c(1.0, k, w.conjugate())
                      for k in range(n + 1))
        got = kernel_sum_truncated(1.0, q, p, n)
        ref = embed_in_slice(partial, unit)
        assert abs(got - ref) <= 1e-13 * (1 + abs(ref))

    def test_term_cap(self):
        with pytest.raises(ValueError):
            kernel_sum_truncated(1.0, Quaternion(0, 0, 0, 0),
                                 Quaternion(0, 0, 0, 0), 65)


class TestUtilityKernels:
    def test_polynomial(self):
        assert polynomial_kernel(1, (0.0,), (0.0,)) == 1.0
        assert polynomial_kernel(2, (1.0, 1.0), (1.0, 1.0)) == 9.0
        with pytest.raises(ValueError):
            polynomial_kernel(0, (1.0,), (1.0,))

    def test_exponential(self):
        assert exponential_kernel((1.0, 0.0), (0.0, 1.0)) == 1.0
        assert exponential_kernel((1.0,), (2.0,)) == pytest.approx(math.exp(2))
