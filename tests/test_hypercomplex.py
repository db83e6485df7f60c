import math

import numpy as np
import pytest
from conftest import assert_qclose, random_quaternion
from hypothesis import given, settings
from hypothesis import strategies as st

from rbffock import (ImaginaryUnit, Quaternion, SlicePoint, intrinsic_exp_sq,
                     slice_decompose, star_exp)
from rbffock._quatarray import star_exp_grid

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


class TestAlgebra:
    def test_unit_relations(self):
        for u in (I, J, K):
            assert_qclose(u * u, -ONE, tol=0.0)
        assert_qclose(I * J, K, tol=0.0)
        assert_qclose(J * K, I, tol=0.0)
        assert_qclose(K * I, J, tol=0.0)
        assert_qclose(J * I, -K, tol=0.0)

    def test_zero_annihilates(self):
        q = Quaternion(1.5, -2.0, 0.25, 3.0)
        assert_qclose(Quaternion(0, 0, 0, 0) * q, Quaternion(0, 0, 0, 0), tol=0.0)

    def test_direct_expansion(self):
        # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
        assert_qclose((ONE + I) * (ONE + J), Quaternion(1, 1, 1, 1), tol=0.0)

    def test_conjugation(self):
        q = Quaternion(1, 1, 1, 1)
        assert q.conjugate() == Quaternion(1, -1, -1, -1)
        r = Quaternion.from_real(2.5)
        assert r.conjugate() == r
        q = Quaternion(0.3, -1.2, 0.7, 2.0)
        assert_qclose(q * q.conjugate(), Quaternion.from_real(q.norm_sq()),
                      tol=1e-15)

    @given(quaternions, quaternions)
    @settings(max_examples=200, deadline=None)
    def test_conj_antiautomorphism(self, p, q):
        assert_qclose((p * q).conjugate(), q.conjugate() * p.conjugate(),
                      tol=1e-13)

    @given(quaternions, quaternions)
    @settings(max_examples=200, deadline=None)
    def test_modulus_multiplicative(self, p, q):
        assert abs(p * q) == pytest.approx(abs(p) * abs(q), rel=1e-13, abs=1e-13)

    def test_scalar_ops(self):
        q = Quaternion(1, 2, 3, 4)
        assert 2.0 * q == q * 2.0 == q + q
        assert q / 2.0 == Quaternion(0.5, 1, 1.5, 2)
        assert 1 + q == Quaternion(2, 2, 3, 4)

    def test_json_roundtrip(self):
        q = Quaternion(0.1, -0.5, 2.0, -3.25)
        assert Quaternion.from_list(q.to_list()) == q
        with pytest.raises(ValueError):
            Quaternion.from_list([1.0, 2.0])


class TestImaginaryUnit:
    def test_validation(self):
        ImaginaryUnit(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ImaginaryUnit(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ImaginaryUnit.from_quaternion(Quaternion(0.5, 1, 0, 0))
        with pytest.raises(ValueError):
            ImaginaryUnit.from_vector(0.0, 0.0, 0.0)

    def test_from_vector_normalizes(self):
        u = ImaginaryUnit.from_vector(0.0, 2.0, 2.0)
        assert u.y == pytest.approx(1 / math.sqrt(2))
        q = u.as_quaternion()
        assert_qclose(q * q, -ONE, tol=1e-15)

    def test_list_roundtrip_validates(self):
        u = ImaginaryUnit.from_list([0.0, 0.0, 1.0, 0.0])
        assert u.y == 1.0
        with pytest.raises(ValueError):
            ImaginaryUnit.from_list([0.0, 0.5, 0.0, 0.0])


class TestSliceDecompose:
    def test_on_standard_slice(self):
        sp = slice_decompose(Quaternion(3, 4, 0, 0))
        assert (sp.x, sp.y) == (3.0, 4.0)
        assert (sp.unit.x, sp.unit.y, sp.unit.z) == (1.0, 0.0, 0.0)
        assert not sp.degenerate

    def test_unit_normalized(self):
        # 1 + j + k = 1 + sqrt(2) * (j + k)/sqrt(2)
        sp = slice_decompose(Quaternion(1, 0, 1, 1))
        assert sp.y == pytest.approx(math.sqrt(2), rel=1e-15)
        assert sp.unit.y == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert sp.unit.z == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert_qclose(sp.to_quaternion(), Quaternion(1, 0, 1, 1), tol=1e-15)

    def test_real_degenerate(self):
        sp = slice_decompose(Quaternion.from_real(5.0))
        assert sp.degenerate
        assert (sp.x, sp.y) == (5.0, 0.0)
        assert sp.unit.x == 1.0

    def test_subnormal_imaginary_part(self):
        q = Quaternion(0.0, 0.0, 5e-324, 5e-324)
        sp = slice_decompose(q)
        assert sp.unit.y == sp.unit.z == pytest.approx(1 / math.sqrt(2),
                                                       rel=1e-15)
        assert sp.to_quaternion() == q

    @given(quaternions)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, q):
        sp = slice_decompose(q)
        back = sp.to_quaternion()
        # division and re-multiplication cost at most a couple of ulps
        assert abs(back - q) <= 4e-16 * (1.0 + abs(q))


class TestIntrinsicExpSq:
    def test_real_restriction(self):
        for x in (-1.5, 0.0, 0.7):
            val = intrinsic_exp_sq(1.0, Quaternion.from_real(x), -1)
            assert_qclose(val, Quaternion.from_real(math.exp(-x * x)), tol=1e-15)

    def test_unit_imaginary(self):
        # q = i gives q^2 = -1, so the exponent is +1
        assert_qclose(intrinsic_exp_sq(1.0, I, -1),
                      Quaternion.from_real(math.e), tol=1e-15)

    def test_off_axis_slice(self):
        # (1+j)^2 = 2j, exp(-2j/4) = cos(1/2) - j sin(1/2)
        val = intrinsic_exp_sq(2.0, Quaternion(1, 0, 1, 0), -1)
        assert_qclose(val, Quaternion(math.cos(0.5), 0, -math.sin(0.5), 0),
                      tol=1e-15)

    def test_commutes_on_slice(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = random_quaternion(rng, 1.5)
            sp = slice_decompose(q)
            w = SlicePoint(rng.uniform(-1, 1), rng.uniform(-1, 1),
                           sp.unit).to_quaternion()
            e = intrinsic_exp_sq(1.3, q, 1)
            assert abs(e * w - w * e) <= 1e-13 * (1 + abs(e * w))

    def test_validation(self):
        with pytest.raises(ValueError):
            intrinsic_exp_sq(-1.0, I, -1)
        with pytest.raises(ValueError):
            intrinsic_exp_sq(1.0, I, 2)


class TestStarExp:
    def test_p_zero(self):
        q = Quaternion(0.3, 1.0, -2.0, 0.5)
        assert_qclose(star_exp(2.0, q, Quaternion(0, 0, 0, 0)), ONE, tol=0.0)

    def test_real_restriction(self):
        a, b, nu = 0.8, -1.1, 1.7
        val = star_exp(nu, Quaternion.from_real(a), Quaternion.from_real(b))
        assert_qclose(val, Quaternion.from_real(math.exp(nu * a * b)), tol=1e-14)

    def test_same_argument(self):
        q = Quaternion(0.5, 0.2, 0.1, -0.4)
        val = star_exp(1.0, q, q)
        assert_qclose(val, Quaternion.from_real(math.exp(q.norm_sq())), tol=1e-14)

    def test_slice_restriction_matches_complex_exp(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            unit = ImaginaryUnit.from_vector(*rng.uniform(-1, 1, 3))
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            nu = rng.uniform(0.5, 3.0)
            q = SlicePoint(z.real, z.imag, unit).to_quaternion()
            p = SlicePoint(w.real, w.imag, unit).to_quaternion()
            expected = np.exp(nu * z * w.conjugate())
            got = star_exp(nu, q, p)
            ref = SlicePoint(expected.real, expected.imag, unit).to_quaternion()
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref))

    def test_matches_high_precision_series(self):
        # the terms peak near exp(nu|q||p|), far above the result when
        # Re(z conj(w)) < 0; a truncated double series loses every digit
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        nu = 2.0
        with mpmath.workdps(60):
            for _ in range(30):
                q = random_quaternion(rng)
                p = random_quaternion(rng)
                scale = math.sqrt(rng.uniform(20.0, 50.0) / (nu * abs(q) * abs(p)))
                q, p = q * scale, p * scale
                assert 20.0 < nu * abs(q) * abs(p) <= 50.0 + 1e-9
                ref = _mp_star_exp(mpmath, nu, q, p)
                err = math.sqrt(sum(float(a - b) ** 2
                                    for a, b in zip(ref, star_exp(nu, q, p).to_list())))
                assert err <= 1e-13 * float(mpmath.sqrt(sum(r * r for r in ref)))

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(29)
        unit = ImaginaryUnit.from_vector(0.3, -0.8, 0.5)
        p = SlicePoint(0.7, -1.1, ImaginaryUnit.from_vector(-0.6, 0.2, 0.9)).to_quaternion()
        x = rng.uniform(-2.0, 2.0, (5, 6))
        y = rng.uniform(-2.0, 2.0, (5, 6))
        grid = star_exp_grid(1.3, x, y, unit, p)
        assert grid.shape == (5, 6, 4)
        for idx in np.ndindex(x.shape):
            q = SlicePoint(x[idx], y[idx], unit).to_quaternion()
            assert_qclose(Quaternion(*grid[idx]), star_exp(1.3, q, p), tol=1e-14)

    def test_overflow_raises(self):
        big = Quaternion(0.0, 20.0, 0.0, 0.0)
        with pytest.raises(OverflowError, match="nu=2"):
            star_exp(2.0, big, big)
        with pytest.raises(OverflowError):
            star_exp_grid(2.0, np.array([0.0, 20.0]), np.array([0.0, 20.0]),
                          ImaginaryUnit(1.0, 0.0, 0.0), big)

    def test_validation(self):
        with pytest.raises(ValueError):
            star_exp(0.0, ONE, ONE)


def _mp_star_exp(mpmath, nu, q, p, terms=250):
    """sum_{n<terms} nu^n q^n conj(p)^n / n! in mpmath working precision."""
    def mul(a, b):
        aw, ax, ay, az = a
        bw, bx, by, bz = b
        return (aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw)

    qm = tuple(mpmath.mpf(v) for v in q.to_list())
    pbar = tuple(mpmath.mpf(v) for v in p.conjugate().to_list())
    total = [mpmath.mpf(1), 0, 0, 0]
    u = v = (mpmath.mpf(1), 0, 0, 0)
    coeff = mpmath.mpf(1)
    for n in range(1, terms):
        u, v = mul(u, qm), mul(v, pbar)
        coeff = coeff * nu / n
        total = [t + coeff * c for t, c in zip(total, mul(u, v))]
    return total
