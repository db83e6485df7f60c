import cmath
import math

import numpy as np
import pytest
from conftest import assert_qclose, random_quaternion

from rbffock import (FockSliceSpace, ImaginaryUnit, Quaternion, RBFCSpace,
                     RBFSliceSpace, hermite_basis_l2, hermite_psi,
                     intrinsic_exp_sq, multi_indices, rbf_basis_q,
                     rbf_basis_series_d, rbf_sb_image_series,
                     rbf_sb_image_series_d, rbf_sb_kernel, rbf_sb_kernel_d,
                     rbf_sb_transform, rbf_sb_transform_d, sb_image_series,
                     sb_kernel, sb_transform)
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

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_no_coefficients_is_the_zero_function(self, method):
        phi = HermiteCoeffFunction(1.0, ())
        assert phi.coeffs == (Quaternion(0, 0, 0, 0),)
        got = sb_transform(2.0, phi, Quaternion(0.1, 0.2, 0, 0), method=method)
        assert got == Quaternion(0, 0, 0, 0)

    def test_text_coefficient_rejected(self):
        with pytest.raises(TypeError, match="str"):
            HermiteCoeffFunction(2.0, ("1.5",))

    def test_numpy_scalar_coefficients_accepted(self):
        phi = HermiteCoeffFunction(2.0, (np.float32(1.5), np.int64(2)))
        assert phi.coeffs == (Quaternion(1.5, 0, 0, 0), Quaternion(2, 0, 0, 0))

    def test_quadrature_matches_exact(self):
        rng = np.random.default_rng(32)
        nu = 2.0
        for _ in range(5):
            phi = HermiteCoeffFunction(
                nu, tuple(random_quaternion(rng) for _ in range(11)))
            q = random_quaternion(rng)
            exact = sb_transform(nu, phi, q, method="auto")
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
        want = sb_transform(nu, phi, q, method="auto")
        assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_bare_callable_rejected(self):
        with pytest.raises(TypeError):
            sb_transform(1.0, lambda x: np.zeros(x.shape + (4,)),
                         Quaternion(0, 0, 0, 0), method="quadrature")

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_other_phi_is_a_type_error_before_any_point_check(self, method):
        # the points are malformed too: the type is checked first, and the
        # message names the class the transform needs on either route
        phi_d = HermiteCoeffFunctionD(2.0, 1, (((1,), 1.0),))
        with pytest.raises(TypeError, match="needs a HermiteCoeffFunction$"):
            sb_transform(2.0, phi_d, [0.0, 0.0], method=method)
        with pytest.raises(TypeError, match="needs a HermiteCoeffFunctionD$"):
            rbf_sb_transform_d(1.0, 1, hermite_basis_l2(2.0, 1), [0.1j, 0.2j],
                               method)


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

    def test_kernel_value_off_unit_gamma(self):
        # (2/(pi gamma^2))^{d/4} exp(-(sqrt2 z - x)^2 / gamma^2), d = 2
        gamma = 0.7
        z, x = (0.3 + 0.2j, -0.4 + 0.5j), (0.6, -0.2)
        u2 = sum((math.sqrt(2.0) * zl - xl) ** 2 for zl, xl in zip(z, x))
        want = (2.0 / (math.pi * gamma * gamma)) ** 0.5 * cmath.exp(-u2 / gamma ** 2)
        assert abs(rbf_sb_kernel_d(gamma, z, x) - want) <= 1e-14 * abs(want)

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
        exact = rbf_sb_transform_d(gamma, 2, phi, z, method="auto")
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


# ---------------------------------------------------------------------------
# the one quadrature route: high rule orders and scales mu != nu

HIGH_ORDERS = (400, 512)


def _high_order_points(rng, n):
    """Quaternions with |q| <= 1.2."""
    q = rng.normal(size=(n, 4))
    return q * (rng.uniform(0.0, 1.2, n) / np.linalg.norm(q, axis=1))[:, None]


def _close_to(got, want):
    return np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", HIGH_ORDERS)
def test_slice_quadrature_at_high_orders_matches_order_80(order):
    rng = np.random.default_rng(41)
    phi = HermiteCoeffFunction(0.8, tuple(random_quaternion(rng)
                                          for _ in range(12)))
    q = _high_order_points(rng, 40)
    for normalization in ("unitary", "literal"):
        got = sb_transform(2.0, phi, q, normalization, "quadrature", order)
        want = sb_transform(2.0, phi, q, normalization, "quadrature", 80)
        assert _close_to(got, want)
    got = rbf_sb_transform(1.0, phi, q, method="quadrature", quad_order=order)
    want = rbf_sb_transform(1.0, phi, q, method="quadrature", quad_order=80)
    assert _close_to(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", HIGH_ORDERS)
@pytest.mark.parametrize("dim", [1, 2])
def test_cd_quadrature_at_high_orders_matches_order_80(dim, order):
    rng = np.random.default_rng(42 + dim)
    phi = HermiteCoeffFunctionD(1.0, dim, tuple(
        (idx, complex(*rng.uniform(-1.0, 1.0, 2)))
        for idx in multi_indices(dim, 5)))
    z = _high_order_points(rng, 30)[:, :2 * dim].reshape(30, dim, 2)
    z = z[..., 0] + 1j * z[..., 1]
    got = rbf_sb_transform_d(1.0, dim, phi, z, "quadrature", order)
    want = rbf_sb_transform_d(1.0, dim, phi, z, "quadrature", 80)
    assert _close_to(got, want)


def _mp_fock_transforms(mpmath, nu, mu, n_max, z):
    """The unitary Fock-side transforms at scale nu of psi_0 .. psi_n_max
    at scale mu, at the complex point z, in 40 digits and closed form: the
    integrand is exp(-nu z^2/2) exp(-a x^2 + b x) H_n(sqrt(mu) x) with
    a = (nu + mu)/2 and b = nu sqrt2 z, so each transform is a sum of the
    Gaussian moments I_k = int x^k exp(-a x^2 + b x) dx, which satisfy
    I_{k+1} = (b I_k + k I_{k-1}) / (2a), over the integer coefficients
    of H_n."""
    with mpmath.workdps(40):
        nu, mu, z = mpmath.mpf(nu), mpmath.mpf(mu), mpmath.mpc(z)
        a, b = (nu + mu) / 2, nu * mpmath.sqrt(2) * z
        first = mpmath.sqrt(mpmath.pi / a) * mpmath.exp(b * b / (4 * a))
        moments = [first, b * first / (2 * a)]
        for k in range(1, n_max):
            moments.append((b * moments[k] + k * moments[k - 1]) / (2 * a))
        pref = ((nu * mu) ** 0.25 / mpmath.sqrt(mpmath.pi)
                * mpmath.exp(-nu * z * z / 2))
        values, prev, cur = [], [], [1]
        for n in range(n_max + 1):
            values.append(complex(pref / mpmath.sqrt(
                2 ** n * mpmath.factorial(n)) * mpmath.fsum(
                h * mpmath.sqrt(mu) ** j * moments[j] for j, h in enumerate(cur))))
            # H_{n+1}(u) = 2u H_n(u) - 2n H_{n-1}(u), on the coefficients
            following = [0] + [2 * h for h in cur]
            for j, h in enumerate(prev):
                following[j] -= 2 * n * h
            prev, cur = cur, following
        return values


MP_POINTS = (0.3 + 0.2j, -1.1 + 0.9j, 1.3 - 0.7j, 1.5j)


@pytest.mark.parametrize("mu", [0.5, 1.0, 4.0])
def test_quadrature_routes_at_mu_not_nu_match_an_mpmath_oracle(mu):
    """nu = 2 (gamma = 1) and psi_n at scale mu, order 40, |z| <= 1.5: the
    slice route and the C^1 and C^2 routes within 1e-13 relative."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(43)
    nu, n_max = 2.0, 6
    table = {z: _mp_fock_transforms(mpmath, nu, mu, n_max, z) for z in MP_POINTS}
    unit = ImaginaryUnit(0.6, 0.0, -0.8)
    phi = HermiteCoeffFunction(mu, tuple(random_quaternion(rng)
                                         for _ in range(n_max + 1)))
    for z, fock in table.items():
        q = Quaternion(z.real, z.imag * unit.x, z.imag * unit.y, z.imag * unit.z)
        got = sb_transform(nu, phi, q, method="quadrature", quad_order=40)
        want = sum((Quaternion(f.real, f.imag * unit.x, f.imag * unit.y,
                               f.imag * unit.z) * c
                    for f, c in zip(fock, phi.coeffs)), Quaternion(0, 0, 0, 0))
        assert abs(got - want) <= 1e-13 * abs(want)
    for dim in (1, 2):
        terms = tuple((idx, complex(*rng.uniform(-1.0, 1.0, 2)))
                      for idx in multi_indices(dim, n_max))
        phi_d = HermiteCoeffFunctionD(mu, dim, terms)
        points = list(MP_POINTS) if dim == 1 else list(zip(MP_POINTS, MP_POINTS[::-1]))
        for point in points:
            point = np.atleast_1d(point)
            got = rbf_sb_transform_d(1.0, dim, phi_d, point, "quadrature", 40)
            want = np.exp(-np.sum(point * point)) * sum(
                c * math.prod(table[zl][k] for zl, k in zip(point, idx))
                for idx, c in terms)
            assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.filterwarnings("error")
def test_quadrature_takes_hermite_degrees_beyond_64():
    """The rows come from the recurrence itself, capped only by the rule's
    exactness 2 * quad_order - 1; degree 100 agrees with the exact route."""
    rng = np.random.default_rng(44)
    phi = HermiteCoeffFunction(2.0, tuple(random_quaternion(rng)
                                          for _ in range(101)))
    q = _high_order_points(rng, 20) * 0.5
    got = sb_transform(2.0, phi, q, method="quadrature", quad_order=80)
    assert _close_to(got, sb_transform(2.0, phi, q))
    phi_d = HermiteCoeffFunctionD(2.0, 1, tuple(((n,), 1.0) for n in range(101)))
    z = np.array([[0.3 + 0.1j], [-0.2 + 0.4j]])
    got = rbf_sb_transform_d(1.0, 1, phi_d, z, "quadrature", 80)
    assert _close_to(got, rbf_sb_transform_d(1.0, 1, phi_d, z))
    with pytest.raises(ValueError, match="Hermite degree 101 exceeds"):
        sb_transform(2.0, HermiteCoeffFunction(2.0, phi.coeffs + (1.0,)), q,
                     method="quadrature", quad_order=50)
