import math

import numpy as np
import pytest
from conftest import assert_qclose, random_quaternion

from rbffock import (FockSliceSpace, ImaginaryUnit, Quaternion, RBFCSpace,
                     RBFSliceSpace, hermite_basis_l2, hermite_psi,
                     intrinsic_exp_sq, rbf_basis_q, rbf_basis_series_d,
                     rbf_sb_image_series, rbf_sb_image_series_d,
                     rbf_sb_kernel, rbf_sb_kernel_d, rbf_sb_transform,
                     rbf_sb_transform_d, sb_image_series, sb_kernel,
                     sb_transform)
from rbffock.transforms import HermiteCoeffFunction, HermiteCoeffFunctionD

UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)


class TestSBKernel:
    def test_q_zero_collapses(self):
        nu, x = 2.0, 0.8
        got = sb_kernel(nu, Quaternion(0, 0, 0, 0), x)
        want = (nu / math.pi) ** 0.25 * math.exp(-nu * x * x / 2)
        assert_qclose(got, Quaternion.from_real(want), tol=1e-15)

    def test_exponent_assembly(self):
        # real q = x/sqrt(2) puts the exponent at -nu x^2/2 + nu x^2/2
        # - nu x^2 / 4 + nu x^2 = nu x^2 / 4
        nu, x = 1.5, 1.2
        q = Quaternion.from_real(x / math.sqrt(2))
        got = sb_kernel(nu, q, x)
        want = (nu / math.pi) ** 0.25 * math.exp(nu * x * x / 4)
        assert_qclose(got, Quaternion.from_real(want), tol=1e-14)

    def test_generating_series(self):
        rng = np.random.default_rng(31)
        nu = 2.0
        for _ in range(5):
            q = random_quaternion(rng)
            q = q * (1.5 / max(abs(q), 1.5))
            x = rng.uniform(-2, 2)
            acc = Quaternion(0, 0, 0, 0)
            for n in range(41):
                c = math.exp(0.5 * (n * math.log(nu) - math.lgamma(n + 1)))
                power = Quaternion.from_real(1.0)
                for _ in range(n):
                    power = power * q
                acc = acc + power * (c * hermite_psi(nu, n, x))
            assert abs(acc - sb_kernel(nu, q, x, "unitary")) <= 1e-9

    def test_literal_prefactor_ratio(self):
        nu = 3.0
        q = Quaternion(0.2, 0.5, -0.1, 0.3)
        lit = sb_kernel(nu, q, 0.4, "literal")
        uni = sb_kernel(nu, q, 0.4, "unitary")
        assert abs(lit - uni * math.sqrt(nu / math.pi)) <= 1e-15


class TestSBTransform:
    def test_action_on_basis(self):
        nu = 2.0
        q = Quaternion(0.4, 0.1, 0.3, -0.2)
        for n in (0, 2, 5):
            got = sb_transform(nu, hermite_basis_l2(nu, n), q)
            power = Quaternion.from_real(1.0)
            for _ in range(n):
                power = power * q
            want = power * (nu ** (n / 2) / math.sqrt(math.factorial(n)))
            assert abs(got - want) <= 1e-13 * (1 + abs(want))
            lit = sb_transform(nu, hermite_basis_l2(nu, n), q, "literal")
            assert abs(lit - want * math.sqrt(nu / math.pi)) \
                <= 1e-13 * (1 + abs(want))

    def test_zero_maps_to_zero(self):
        got = sb_transform(1.0, HermiteCoeffFunction(1.0, (Quaternion(0, 0, 0, 0),)),
                           Quaternion(1, 1, 0, 0))
        assert abs(got) == 0.0

    def test_quadrature_matches_exact(self):
        rng = np.random.default_rng(32)
        nu = 2.0
        for _ in range(5):
            phi = HermiteCoeffFunction(
                nu, tuple(random_quaternion(rng) for _ in range(11)))
            q = random_quaternion(rng)
            exact = sb_transform(nu, phi, q, method="coeffs")
            quad = sb_transform(nu, phi, q, method="quadrature")
            assert abs(quad - exact) <= 1e-9 * (1 + abs(exact))

    def test_images_are_unit_norm_in_fock(self):
        nu = 2.0
        space = FockSliceSpace(nu, UNIT_I, 80)
        for n in (0, 3, 7):
            image = sb_image_series(nu, hermite_basis_l2(nu, n))
            assert space.norm_sq(image) == pytest.approx(1.0, rel=1e-10)

    def test_quadrature_matches_exact_on_psi3(self):
        nu = 2.0
        phi = hermite_basis_l2(nu, 3)
        q = Quaternion(0.5, 0.0, 0.4, 0.0)
        got = sb_transform(nu, phi, q, method="quadrature")
        want = sb_transform(nu, phi, q, method="coeffs")
        assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_bare_callable_rejected(self):
        with pytest.raises(TypeError):
            sb_transform(1.0, lambda x: np.zeros(x.shape + (4,)),
                         Quaternion(0, 0, 0, 0), method="quadrature")

    def test_scale_mismatch_on_exact_path(self):
        with pytest.raises(ValueError):
            sb_transform(1.0, hermite_basis_l2(2.0, 1),
                         Quaternion(0, 0, 0, 0), method="coeffs")


class TestRBFSBKernel:
    def test_envelope_match(self):
        rng = np.random.default_rng(33)
        for norm in ("unitary", "literal"):
            for _ in range(10):
                gamma = rng.uniform(0.6, 2.0)
                q = random_quaternion(rng, 1.2)
                x = rng.uniform(-2, 2)
                lhs = rbf_sb_kernel(gamma, q, x, norm)
                rhs = intrinsic_exp_sq(gamma, q) * sb_kernel(
                    2.0 / gamma ** 2, q, x, norm)
                assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))

    def test_gaussian_peak(self):
        gamma = 1.3
        q = Quaternion.from_real(0.7)
        got = rbf_sb_kernel(gamma, q, math.sqrt(2) * 0.7)
        want = (2.0 / (math.pi * gamma ** 2)) ** 0.25
        assert_qclose(got, Quaternion.from_real(want), tol=1e-14)

    def test_series_form(self):
        rng = np.random.default_rng(34)
        gamma = 1.0
        nu = 2.0
        for _ in range(5):
            q = random_quaternion(rng)
            q = q * (1.5 / max(abs(q), 1.5))
            x = rng.uniform(-2, 2)
            acc = Quaternion(0, 0, 0, 0)
            for n in range(41):
                acc = acc + rbf_basis_q(gamma, n, q) * hermite_psi(nu, n, x)
            assert abs(acc - rbf_sb_kernel(gamma, q, x, "unitary")) <= 1e-9


class TestRBFSBTransform:
    def test_ground_state_maps_to_gaussian(self):
        gamma = 1.0
        q = Quaternion(0.3, 0.0, 0.7, 0.0)
        got = rbf_sb_transform(gamma, hermite_basis_l2(2.0, 0), q)
        assert_qclose(got, intrinsic_exp_sq(gamma, q), tol=1e-13)

    def test_images_are_basis_elements(self):
        gamma = 1.2
        nu = 2.0 / gamma ** 2
        q = Quaternion(0.4, -0.2, 0.1, 0.5)
        for n in (1, 4):
            got = rbf_sb_transform(gamma, hermite_basis_l2(nu, n), q)
            want = rbf_basis_q(gamma, n, q)
            assert abs(got - want) <= 1e-13 * (1 + abs(want))

    def test_images_have_unit_rbf_norm(self):
        gamma = 1.0
        space = RBFSliceSpace(gamma, UNIT_I, 80)
        for n in (0, 2, 6):
            phi = hermite_basis_l2(2.0, n)
            assert phi.norm_sq() == 1.0
            image = rbf_sb_image_series(gamma, phi)
            assert space.norm_sq(image) == pytest.approx(1.0, rel=1e-10)

    def test_right_linearity(self):
        gamma = 1.0
        lam = Quaternion(0.3, -0.5, 0.2, 0.8)
        phi = hermite_basis_l2(2.0, 2)
        shifted = HermiteCoeffFunction(
            2.0, tuple(c * lam for c in phi.coeffs))
        q = Quaternion(0.2, 0.4, 0.0, -0.3)
        got = rbf_sb_transform(gamma, shifted, q)
        want = rbf_sb_transform(gamma, phi, q) * lam
        assert abs(got - want) <= 1e-13 * (1 + abs(want))

    def test_operator_factorization_pointwise(self):
        rng = np.random.default_rng(35)
        gamma = 1.4
        nu = 2.0 / gamma ** 2
        for _ in range(5):
            phi = HermiteCoeffFunction(
                nu, tuple(random_quaternion(rng) for _ in range(8)))
            q = random_quaternion(rng)
            via_factored = rbf_sb_transform(gamma, phi, q)
            direct = intrinsic_exp_sq(gamma, q) * sb_transform(nu, phi, q)
            assert abs(via_factored - direct) <= 1e-10 * (1 + abs(direct))


class TestDTransform:
    def test_kernel_tensor_factorization(self):
        rng = np.random.default_rng(36)
        gamma = 0.9
        for _ in range(5):
            z = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (2, 2)))
            x = rng.uniform(-1.5, 1.5, 2)
            joint = rbf_sb_kernel_d(gamma, z, x)
            split = (rbf_sb_kernel_d(gamma, z[:1], x[:1])
                     * rbf_sb_kernel_d(gamma, z[1:], x[1:]))
            assert abs(joint - split) <= 1e-14 * abs(joint)

    def test_dim_one_matches_slice_transform(self):
        gamma = 1.0
        nu = 2.0
        phi_d = HermiteCoeffFunctionD(nu, 1, (((2,), 1.0),))
        z = 0.4 + 0.3j
        got = rbf_sb_transform_d(gamma, 1, phi_d, (z,))
        ref = rbf_sb_transform(gamma, hermite_basis_l2(nu, 2),
                               Quaternion(z.real, z.imag, 0, 0))
        assert abs(got - complex(ref.w, ref.x)) <= 1e-13

    def test_images_are_multiindex_basis(self):
        gamma = 1.1
        nu = 2.0 / gamma ** 2
        z = (0.3 + 0.2j, -0.4 + 0.1j)
        for index in [(0, 0), (1, 2)]:
            phi = HermiteCoeffFunctionD(nu, 2, ((index, 1.0),))
            got = rbf_sb_transform_d(gamma, 2, phi, z)
            want = rbf_basis_series_d(gamma, index).eval(z)
            assert abs(got - want) <= 1e-13 * (1 + abs(want))

    def test_quadrature_matches_exact(self):
        gamma = 1.0
        phi = HermiteCoeffFunctionD(2.0, 2, (((1, 0), 0.7 + 0.1j),
                                             ((0, 2), -0.3 + 0.5j)))
        z = (0.2 - 0.3j, 0.5 + 0.4j)
        exact = rbf_sb_transform_d(gamma, 2, phi, z, method="coeffs")
        quad = rbf_sb_transform_d(gamma, 2, phi, z, method="quadrature",
                                  quad_order=40)
        assert abs(quad - exact) <= 1e-9 * (1 + abs(exact))

    def test_gram_preserved_d2(self):
        gamma = 1.0
        nu = 2.0
        from rbffock import multi_indices
        indices = list(multi_indices(2, 3))
        images = [rbf_sb_image_series_d(
            gamma, HermiteCoeffFunctionD(nu, 2, ((idx, 1.0),)))
            for idx in indices]
        gram = RBFCSpace(gamma, 2, 16).gram(images)
        assert np.abs(gram - np.eye(len(indices))).max() < 1e-10

    def test_norm_sq_is_coefficient_sum(self):
        phi = HermiteCoeffFunctionD(1.0, 2, (((0, 0), 1 + 1j), ((2, 1), 2.0)))
        assert phi.norm_sq() == pytest.approx(6.0, rel=1e-15)
