import dataclasses
import math

import numpy as np
import pytest
from conftest import assert_qclose, random_quaternion
from hypothesis import given, settings
from hypothesis import strategies as st

from rbffock import (ImaginaryUnit, Quaternion, embed_in_slice,
                     intrinsic_exp_sq, slice_decompose, star_exp)
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


class TestConstruction:
    """Quaternion and ImaginaryUnit coerce each component once, in their
    own __init__; what the dataclass made of them stays as it was."""

    @pytest.mark.parametrize("kind", [int, np.float64, np.int64],
                             ids=["int", "float64", "int64"])
    def test_components_are_python_floats(self, kind):
        q = Quaternion(kind(1), kind(-2), kind(3), kind(0))
        u = ImaginaryUnit(kind(0), kind(1), kind(0))
        for value in (q.w, q.x, q.y, q.z, u.x, u.y, u.z):
            assert type(value) is float
        assert q.to_list() == [1.0, -2.0, 3.0, 0.0]
        assert u.to_list() == [0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("value, field", [
        (Quaternion(1, 2, 3, 4), "w"), (Quaternion(1, 2, 3, 4), "z"),
        (ImaginaryUnit(1, 0, 0), "x")])
    def test_fields_are_frozen(self, value, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 0.0)
        assert not hasattr(value, "__dict__")

    def test_equality_hash_repr_and_replace(self):
        q = Quaternion(1, 2.5, np.float64(-3), np.int64(4))
        assert q == Quaternion(1.0, 2.5, -3.0, 4.0)
        assert q != Quaternion(1.0, 2.5, -3.0, 4.5)
        assert hash(q) == hash((1.0, 2.5, -3.0, 4.0))
        assert repr(q) == "Quaternion(w=1.0, x=2.5, y=-3.0, z=4.0)"
        assert Quaternion(w=1, x=2, y=3, z=4) == Quaternion(1, 2, 3, 4)
        moved = dataclasses.replace(q, x=np.int64(7))
        assert moved == Quaternion(1.0, 7.0, -3.0, 4.0)
        assert type(moved.x) is float
        u = ImaginaryUnit(0, 1, 0)
        assert u == ImaginaryUnit(0.0, 1.0, 0.0)
        assert hash(u) == hash((0.0, 1.0, 0.0))
        assert repr(u) == "ImaginaryUnit(x=0.0, y=1.0, z=0.0)"
        assert dataclasses.replace(u, y=0, z=-1) == ImaginaryUnit(0, 0, -1)

    @pytest.mark.parametrize("parts", [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0),
                                       (math.nan, 0.0, 0.0),
                                       (1.0, math.nan, 0.0)])
    def test_imaginary_unit_refuses_a_non_unit_or_nan_norm(self, parts):
        with pytest.raises(ValueError, match="imaginary unit must have norm 1"):
            ImaginaryUnit(*parts)
        with pytest.raises(ValueError, match="imaginary unit must have norm 1"):
            dataclasses.replace(ImaginaryUnit(1, 0, 0), x=parts[0], y=parts[1])


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
        q = Quaternion.from_list(u.to_list())
        assert_qclose(q * q, -ONE, tol=1e-15)

    def test_list_roundtrip_validates(self):
        u = ImaginaryUnit.from_list([0.0, 0.0, 1.0, 0.0])
        assert u.y == 1.0
        with pytest.raises(ValueError):
            ImaginaryUnit.from_list([0.0, 0.5, 0.0, 0.0])


class TestSliceDecompose:
    def test_on_standard_slice(self):
        z, unit = slice_decompose(Quaternion(3, 4, 0, 0))
        assert z == complex(3.0, 4.0)
        assert (unit.x, unit.y, unit.z) == (1.0, 0.0, 0.0)

    def test_unit_normalized(self):
        # 1 + j + k = 1 + sqrt(2) * (j + k)/sqrt(2)
        z, unit = slice_decompose(Quaternion(1, 0, 1, 1))
        assert z.imag == pytest.approx(math.sqrt(2), rel=1e-15)
        assert unit.y == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert unit.z == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert_qclose(embed_in_slice(z, unit), Quaternion(1, 0, 1, 1), tol=1e-15)

    def test_real_degenerate(self):
        z, unit = slice_decompose(Quaternion.from_real(5.0))
        assert z == complex(5.0, 0.0)
        assert unit.x == 1.0

    def test_subnormal_imaginary_part(self):
        q = Quaternion(0.0, 0.0, 5e-324, 5e-324)
        z, unit = slice_decompose(q)
        assert unit.y == unit.z == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert embed_in_slice(z, unit) == q

    @given(quaternions)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, q):
        back = embed_in_slice(*slice_decompose(q))
        # division and re-multiplication cost at most a couple of ulps
        assert abs(back - q) <= 4e-16 * (1.0 + abs(q))


class TestIntrinsicExpSq:
    def test_real_restriction(self):
        for x in (-1.5, 0.0, 0.7):
            val = intrinsic_exp_sq(1.0, Quaternion.from_real(x))
            assert_qclose(val, Quaternion.from_real(math.exp(-x * x)), tol=1e-15)

    def test_unit_imaginary(self):
        # q = i gives q^2 = -1, so the exponent is +1
        assert_qclose(intrinsic_exp_sq(1.0, I),
                      Quaternion.from_real(math.e), tol=1e-15)

    def test_off_axis_slice(self):
        # (1+j)^2 = 2j, exp(-2j/4) = cos(1/2) - j sin(1/2)
        val = intrinsic_exp_sq(2.0, Quaternion(1, 0, 1, 0))
        assert_qclose(val, Quaternion(math.cos(0.5), 0, -math.sin(0.5), 0),
                      tol=1e-15)

    def test_commutes_on_slice(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = random_quaternion(rng, 1.5)
            _, unit = slice_decompose(q)
            w = embed_in_slice(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                               unit)
            e = intrinsic_exp_sq(1.3, q)
            assert abs(e * w - w * e) <= 1e-13 * (1 + abs(e * w))

    def test_validation(self):
        with pytest.raises(ValueError):
            intrinsic_exp_sq(-1.0, I)


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
            q = embed_in_slice(z, unit)
            p = embed_in_slice(w, unit)
            expected = np.exp(nu * z * w.conjugate())
            got = star_exp(nu, q, p)
            ref = embed_in_slice(expected, unit)
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
        p = embed_in_slice(complex(0.7, -1.1),
                           ImaginaryUnit.from_vector(-0.6, 0.2, 0.9))
        x = rng.uniform(-2.0, 2.0, (5, 6))
        y = rng.uniform(-2.0, 2.0, (5, 6))
        grid = star_exp_grid(1.3, x + 1j * y, unit, p)
        assert grid.shape == (5, 6, 4)
        for idx in np.ndindex(x.shape):
            q = embed_in_slice(complex(x[idx], y[idx]), unit)
            assert_qclose(Quaternion(*grid[idx]), star_exp(1.3, q, p), tol=1e-14)

    def test_overflow_raises(self):
        big = Quaternion(0.0, 20.0, 0.0, 0.0)
        with pytest.raises(OverflowError, match="nu=2"):
            star_exp(2.0, big, big)
        with pytest.raises(OverflowError):
            star_exp_grid(2.0, np.array([0.0, 20.0]) + 1j * np.array([0.0, 20.0]),
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
