import math
import re

import numpy as np
import pytest
from conftest import assert_qclose, random_quaternion

from rbffock import (FockCSpace, FockSliceSpace, GaussSeries, ImaginaryUnit,
                     QPowerSeries, Quaternion, RBFCSpace, RBFSliceSpace,
                     embed_in_slice, intrinsic_exp_sq, m_operator,
                     rbf_basis_series, rbf_basis_series_d, rbf_kernel_qslice)
from rbffock.series import CPowerSeries, GaussCSeries
from rbffock.verify import _bound_ratio

UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_TILTED = ImaginaryUnit.from_vector(1.0, 1.0, 0.0)


class TestFockSliceSpace:
    def test_monomial_norms(self):
        for nu in (0.5, 2.0):
            space = FockSliceSpace(nu, UNIT_TILTED, 60)
            for n in (0, 1, 4, 9):
                got = space.inner_product(QPowerSeries.monomial(n),
                                          QPowerSeries.monomial(n))
                want = math.factorial(n) / nu ** n
                assert_qclose(got, Quaternion.from_real(want), tol=1e-11)

    def test_parity_orthogonality(self):
        space = FockSliceSpace(1.0, UNIT_I, 40)
        got = space.inner_product(QPowerSeries.monomial(0),
                                  QPowerSeries.monomial(1))
        assert abs(got) <= 1e-14

    def test_reproduce_random_series(self):
        rng = np.random.default_rng(21)
        space = FockSliceSpace(2.0, UNIT_I, 80)
        for _ in range(5):
            f = QPowerSeries(tuple(random_quaternion(rng) for _ in range(5)))
            w = Quaternion(0.3, 0.0, 0.5, 0.0)
            expected = f.eval(w)
            got = space.reproduce(f, w)
            assert abs(got - expected) <= 1e-7 * (1 + abs(expected))

    def test_enveloped_series_refused(self):
        # the envelope breaks the series' degree certificate, and the
        # Fock-weighted integral of |exp(-q^2)|^2 diverges
        space = FockSliceSpace(1.0, UNIT_I)
        f = GaussSeries(1.0, QPowerSeries.monomial(0))
        with pytest.raises(TypeError, match="QPowerSeries"):
            space.norm_sq(f)
        with pytest.raises(TypeError, match="QPowerSeries"):
            space.reproduce(f, Quaternion(0.3, 0.2, 0.0, 0.0))

    def test_bare_callable_refused(self):
        space = FockSliceSpace(1.0, UNIT_I, 40)
        with pytest.raises(TypeError, match="QPowerSeries"):
            space.inner_product(lambda sp: Quaternion(1, 0, 0, 0),
                                QPowerSeries.monomial(0))

    def test_degree_beyond_the_rule_is_exact(self):
        # the order-8 rule is exact to degree 15, not 18; ||q^9||^2 = 9!
        space = FockSliceSpace(1.0, UNIT_I, 8)
        f = QPowerSeries.monomial(9)
        assert space.inner_product(f, f).to_list() == [362880.0, 0.0, 0.0, 0.0]


class TestRBFSliceSpace:
    def test_basis_orthonormality(self):
        space = RBFSliceSpace(1.0, UNIT_TILTED, 80)
        basis = [rbf_basis_series(1.0, n) for n in range(6)]
        gram = space.gram(basis)
        eye = np.zeros((6, 6, 4))
        eye[np.arange(6), np.arange(6), 0] = 1.0
        assert np.sqrt(np.sum((gram - eye) ** 2, axis=-1)).max() < 1e-10

    def test_reproduce_basis_element(self):
        space = RBFSliceSpace(1.0, UNIT_I, 80)
        f = rbf_basis_series(1.0, 3)
        w = Quaternion(0.4, 0.2, 0.0, 0.0)
        expected = f.eval(w)
        assert abs(space.reproduce(f, w) - expected) <= 1e-8 * (1 + abs(expected))

    def test_reproduce_off_slice_point(self):
        rng = np.random.default_rng(22)
        space = RBFSliceSpace(1.0, UNIT_I, 80)
        f = GaussSeries(1.0, QPowerSeries(
            tuple(random_quaternion(rng) for _ in range(5))))
        w = Quaternion(0.3, 0.0, 0.5, 0.0)  # on C_j, integration on C_i
        expected = f.eval(w)
        assert abs(space.reproduce(f, w) - expected) <= 1e-7 * (1 + abs(expected))

    def test_isometry_of_envelope_strip(self):
        rng = np.random.default_rng(23)
        space = RBFSliceSpace(1.3, UNIT_I, 80)
        for _ in range(10):
            f = GaussSeries(1.3, QPowerSeries(
                tuple(random_quaternion(rng) for _ in range(12))))
            fock_route = space.norm_sq(f)
            direct = space.inner_product_direct(f, f).w
            assert direct == pytest.approx(fock_route, rel=1e-10)

    def test_direct_route_refuses_what_its_rule_cannot_integrate(self):
        # ||q^10||^2 = 10!/2^10 = 3543.75 at gamma = 1; the order-8 rule,
        # exact to degree 15, gives 3221.98 for this degree-20 integrand
        space = RBFSliceSpace(1.0, UNIT_I, 8)
        f = GaussSeries(1.0, QPowerSeries.monomial(10))
        with pytest.raises(ValueError, match=re.escape(
                "combined integrand degree 20 exceeds quadrature exactness "
                "15; raise quad_order")):
            space.inner_product_direct(f, f)
        assert space.norm_sq(f) == 3543.75

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 5), (6, 12), (24, 24)])
    def test_direct_route_builds_only_its_smallest_exact_grid(self, a, b,
                                                              monkeypatch):
        """Degrees a and b make a polynomial integrand of degree a + b: the
        route builds the order (a + b) // 2 + 1 grid alone, and agrees with
        the same sum on the order-80 grid."""
        from rbffock import spaces

        rng = np.random.default_rng(a * 100 + b)
        gamma = 1.0
        space = RBFSliceSpace(gamma, UNIT_TILTED)
        f, g = (GaussSeries(gamma, QPowerSeries(
            tuple(random_quaternion(rng) for _ in range(d + 1)))) for d in (a, b))
        grid, built = spaces._grid, []

        def recorded(order, nu):
            built.append(order)
            return grid(order, nu)

        monkeypatch.setattr(spaces, "_grid", recorded)
        got = np.array(space.inner_product_direct(f, g).to_list())
        assert built == [(a + b) // 2 + 1]
        z, _ = full = grid(80, space.nu)
        x, y = z.real, z.imag
        comp = np.exp(-4.0 * y * y / (gamma * gamma) + space.nu * (x * x + y * y))
        want = space._fock._grid_pair(
            full, f.eval_slice_grid(z, UNIT_TILTED)[None] * comp[..., None],
            g.eval_slice_grid(z, UNIT_TILTED)[None])[0, 0]
        scale = math.sqrt(space.norm_sq(f) * space.norm_sq(g))
        assert np.abs(got - want).max() <= 1e-13 * scale

    def test_direct_route_of_two_elements(self):
        rng = np.random.default_rng(25)
        space = RBFSliceSpace(1.3, UNIT_TILTED, 80)
        f, g = (GaussSeries(1.3, QPowerSeries(
            tuple(random_quaternion(rng) for _ in range(8)))) for _ in range(2))
        for a, b in ((f, g), (g, f), (f, f)):
            assert_qclose(space.inner_product_direct(a, b),
                          space.inner_product(a, b), tol=1e-10)

    def test_direct_batch_equals_the_route_pair_by_pair(self):
        """The batch engine sums every pair on the grid of its highest
        degree: each pair matches inner_product_direct, which runs on the
        pair's own smallest exact grid, to 1e-13 of the norms."""
        rng = np.random.default_rng(29)
        gamma = 0.8
        space = RBFSliceSpace(gamma, UNIT_TILTED)
        fs, gs = ([GaussSeries(gamma, QPowerSeries(
            tuple(random_quaternion(rng) for _ in range(d + 1)))) for d in degrees]
            for degrees in ((0, 3, 11, 24, 7, 9), (5, 3, 2, 24, 13, 0)))
        gs[2] = fs[2]
        got = space._direct_pairs(fs, gs)
        assert got.shape == (6, 4)
        for row, f, g in zip(got, fs, gs):
            want = np.array(space.inner_product_direct(f, g).to_list())
            scale = math.sqrt(space.norm_sq(f) * space.norm_sq(g))
            assert np.abs(row - want).max() <= 1e-13 * scale

    def test_kernel_self_inner_product(self):
        # <K^q, K^p> = K(p, q): represent K^q by its Gaussian-enveloped
        # series, coefficients (nu^n/n!) conj(q)^n exp(-conj(q)^2/g^2)
        gamma = 1.0
        nu = 2.0
        space = RBFSliceSpace(gamma, UNIT_I, 80)
        rng = np.random.default_rng(24)

        def kernel_section(q):
            tail = intrinsic_exp_sq(gamma, q.conjugate())
            coeffs = []
            power = Quaternion.from_real(1.0)
            for n in range(64 + 1):
                coeffs.append((power * tail) * (nu ** n / math.factorial(n)))
                power = power * q.conjugate()
            return GaussSeries(gamma, QPowerSeries(tuple(coeffs)))

        for _ in range(3):
            q = random_quaternion(rng, 0.7)
            p = random_quaternion(rng, 0.7)
            ip = space.inner_product(kernel_section(q), kernel_section(p))
            want = rbf_kernel_qslice(gamma, p, q)
            assert abs(ip - want) <= 1e-8 * (1 + abs(want))

    def test_member_type_enforced(self):
        space = RBFSliceSpace(1.0, UNIT_I, 40)
        with pytest.raises(TypeError):
            space.inner_product(QPowerSeries.monomial(1),
                                rbf_basis_series(1.0, 1))
        with pytest.raises(ValueError, match="gamma"):
            space.inner_product(rbf_basis_series(2.0, 1),
                                rbf_basis_series(2.0, 1))


class TestMOperator:
    def test_strips_envelope_exactly(self):
        f = rbf_basis_series(1.5, 4)
        stripped = m_operator(1.5, 1, f)
        assert stripped is f.series

    def test_inverse_creates_gaussian_coefficients(self):
        out = m_operator(1.0, -1, QPowerSeries.monomial(0), out_degree=8)
        want = QPowerSeries.exp_sq(1.0, -1, 8)
        for a, b in zip(out.coeffs, want.coeffs):
            assert abs(a - b) <= 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(25)
        f = QPowerSeries(tuple(random_quaternion(rng) for _ in range(10)))
        back = m_operator(1.2, -1, m_operator(1.2, 1, f, out_degree=32),
                          out_degree=32)
        for n in range(10):
            assert abs(back.coeffs[n] - f.coeffs[n]) <= 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            m_operator(1.0, -1, rbf_basis_series(1.0, 0))
        with pytest.raises(ValueError):
            m_operator(2.0, 1, rbf_basis_series(1.0, 0))
        with pytest.raises(ValueError):
            m_operator(1.0, 2, QPowerSeries.monomial(0))
        with pytest.raises(TypeError):
            m_operator(1.0, 1, lambda q: q)


class TestBoundAndSliceChecks:
    """verify's pointwise-bound ratio and slice-independence gap."""

    def test_gaussian_on_real_axis(self):
        f = rbf_basis_series(1.0, 0)
        points = [complex(x, 0.0) for x in np.linspace(-2, 2, 9)]
        assert _bound_ratio(1.0, f, points) <= 1.0 + 1e-12

    def test_random_series_respect_bound(self):
        rng = np.random.default_rng(26)
        points = [complex(x, y)
                  for x in np.linspace(-2, 2, 7)
                  for y in np.linspace(-2, 2, 7)]
        for _ in range(5):
            f = GaussSeries(1.0, QPowerSeries(
                tuple(random_quaternion(rng) for _ in range(7))))
            assert _bound_ratio(1.0, f, points) <= 1.0 + 1e-9

    def test_nan_ratio_fails_the_bound(self, monkeypatch):
        from rbffock import verify
        nan = Quaternion(math.nan, 0.0, 0.0, 0.0)
        monkeypatch.setattr(GaussSeries, "eval", lambda self, q: nan)
        points = [complex(0.5, 0.5), complex(0.0, 1.0)]
        assert math.isnan(_bound_ratio(1.0, rbf_basis_series(1.0, 2), points))
        bound = [r for r in verify.run_criterion("diagonal-bound")
                 if r.check == "pointwise-bound"]
        assert len(bound) == 1 and not bound[0].passed

    def test_bound_beyond_double_range_names_the_point(self):
        # exp(2 y^2/gamma^2) = exp(1800) leaves double range
        points = [complex(0.0, 30.0)]
        with pytest.raises(OverflowError, match=re.escape(
                "the pointwise bound with gamma=1.0 at point "
                "[0.0, 30.0, 0.0, 0.0] is not finite")):
            _bound_ratio(1.0, rbf_basis_series(1.0, 1), points)

    def test_kernel_section_attains_bound(self):
        # f = K^p has norm sqrt(K(p,p)) and |f(p)| = K(p,p): the ratio at
        # q = p is exactly exp(4y^2/g^2) / exp(4y^2/g^2) = 1
        gamma = 1.0
        nu = 2.0
        p = embed_in_slice(complex(0.4, 0.8), UNIT_I)
        tail = intrinsic_exp_sq(gamma, p.conjugate())
        coeffs = []
        power = Quaternion.from_real(1.0)
        for n in range(64 + 1):
            coeffs.append((power * tail) * (nu ** n / math.factorial(n)))
            power = power * p.conjugate()
        section = GaussSeries(gamma, QPowerSeries(tuple(coeffs)))
        ratio = _bound_ratio(gamma, section, [complex(0.4, 0.8)])
        assert ratio == pytest.approx(1.0, rel=1e-8)

    def test_slice_independence(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            f = GaussSeries(1.0, QPowerSeries(
                tuple(random_quaternion(rng) for _ in range(12))))
            closed = RBFSliceSpace(1.0, UNIT_I).norm_sq(f)
            direct = RBFSliceSpace(1.0, UNIT_TILTED, 80).inner_product_direct(f, f).w
            assert abs(closed - direct) <= 1e-10 * closed


class TestComplexSpaces:
    def test_fock_monomial_norms(self):
        space = FockCSpace(2.0, 2, 16)
        for index in [(0, 0), (1, 0), (2, 3)]:
            f = CPowerSeries(2, ((index, 1.0),))
            got = space.inner_product(f, f)
            want = (math.factorial(index[0]) * math.factorial(index[1])
                    / 2.0 ** sum(index))
            assert got.real == pytest.approx(want, rel=1e-12)
            assert got.imag == pytest.approx(0.0, abs=1e-14)

    def test_fock_reproduce_constant(self):
        space = FockCSpace(1.0, 2, 24)
        c = CPowerSeries(2, (((0, 0), 2.5 - 1.0j),))
        got = space.reproduce(c, (0.4 + 0.1j, -0.2 + 0.3j))
        assert got == pytest.approx(2.5 - 1.0j, rel=1e-12)

    def test_rbf_basis_orthonormal(self):
        space = RBFCSpace(1.0, 2, 16)
        basis = [rbf_basis_series_d(1.0, idx)
                 for idx in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]]
        gram = space.gram(basis)
        assert np.abs(gram - np.eye(5)).max() < 1e-12

    def test_rbf_reproduce(self):
        rng = np.random.default_rng(28)
        space = RBFCSpace(1.0, 2, 32)
        from rbffock import multi_indices
        series = CPowerSeries(2, tuple(
            (idx, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for idx in multi_indices(2, 3)))
        f = GaussCSeries(1.0, series)
        w = (0.3 - 0.2j, 0.1 + 0.4j)
        expected = f.eval(w)
        assert abs(space.reproduce(f, w) - expected) <= 1e-7 * (1 + abs(expected))

    def test_member_type_enforced(self):
        space = RBFCSpace(1.0, 2, 16)
        with pytest.raises(TypeError):
            space.inner_product(CPowerSeries(2, (((0, 0), 1.0),)),
                                rbf_basis_series_d(1.0, (0, 0)))


@pytest.mark.parametrize("space", [FockSliceSpace(1.0, quad_order=8),
                                   RBFSliceSpace(1.0, quad_order=8)],
                         ids=["fock", "rbf"])
def test_gram_is_exact_beyond_quadrature_exactness(space):
    # q^10 paired with itself has degree 20 > 2*8 - 1; the rule alone
    # gives 3,299,310 for ||q^10||^2 = 10! = 3,628,800 at nu = 1, and
    # gamma = 1 is nu = 2, where the norm is 10!/2^10
    f = QPowerSeries.monomial(10)
    want = 3628800.0
    if isinstance(space, RBFSliceSpace):
        f, want = GaussSeries(1.0, f), want / 1024
    assert space.inner_product(f, f).to_list() == [want, 0.0, 0.0, 0.0]
    assert space.norm_sq(f) == want
    assert space.gram([f]).tolist() == [[[want, 0.0, 0.0, 0.0]]]


def test_cd_gram_is_exact_beyond_quadrature_exactness():
    # z^10 paired with itself has degree 20 > 2*8 - 1
    f = CPowerSeries(1, (((10,), 1.0),))
    space = FockCSpace(1.0, 1, 8)
    assert space.inner_product(f, f) == 3628800.0
    assert space.norm_sq(f) == 3628800.0
    assert space.gram([f]).tolist() == [[3628800.0]]


def test_slice_integrals_evaluate_nothing_on_a_grid(monkeypatch):
    """Inner products, norms and Grams of slice functions are closed forms;
    no series is evaluated on a slice grid."""
    from rbffock import _quatarray

    def refuse(*_, **__):
        raise AssertionError("a slice integral evaluated a series on a grid")

    monkeypatch.setattr(QPowerSeries, "eval_slice_grid", refuse)
    monkeypatch.setattr(_quatarray, "split_horner", refuse)
    rng = np.random.default_rng(19)
    series = [QPowerSeries(tuple(random_quaternion(rng) for _ in range(d + 1)))
              for d in (0, 4, 11)]
    for space, members in (
            (FockSliceSpace(1.3, UNIT_TILTED, 40), series),
            (RBFSliceSpace(0.9, UNIT_TILTED, 40),
             [GaussSeries(0.9, f) for f in series])):
        gram = space.gram(members)
        assert gram.shape == (3, 3, 4)
        assert abs(space.norm_sq(members[1]) - gram[1, 1, 0]) <= (
            1e-14 * gram[1, 1, 0])
        got = space.inner_product(members[1], members[2])
        assert np.abs(np.array(got.to_list()) - gram[1, 2]).max() <= (
            1e-14 * math.sqrt(gram[1, 1, 0] * gram[2, 2, 0]))


def test_every_fock_inner_product_runs_on_the_one_engine(monkeypatch):
    """Inner products, norms and Grams of all four spaces, on slices and
    on C^d, are sums of ``spaces._fock_sums``; none has a route of its own."""
    from rbffock import spaces

    def refuse(*_, **__):
        raise AssertionError("the engine was called")

    monkeypatch.setattr(spaces, "_fock_sums", refuse)
    q = QPowerSeries((Quaternion(1.0, 0.5, 0.0, -0.5),))
    c = CPowerSeries(2, (((1, 0), 1.0),))
    for space, f in ((FockSliceSpace(1.0, UNIT_TILTED, 8), q),
                     (RBFSliceSpace(1.0, UNIT_TILTED, 8), GaussSeries(1.0, q)),
                     (FockCSpace(2.0, 2, 8), c),
                     (RBFCSpace(1.0, 2, 8), GaussCSeries(1.0, c))):
        for call in (lambda: space.inner_product(f, f),
                     lambda: space.norm_sq(f), lambda: space.gram([f, f])):
            with pytest.raises(AssertionError, match="the engine was called"):
                call()


def _mp_qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _assert_gram_matches(mpmath, gram, oracle):
    """Entries as component lists, each within 1e-15 of the oracle's
    relative to sqrt(O_aa O_bb) (whose first components are the norms)."""
    for a, row in enumerate(oracle):
        for b, want in enumerate(row):
            err = mpmath.sqrt(mpmath.fsum((mpmath.mpf(x) - y) ** 2
                                          for x, y in zip(gram[a][b], want)))
            assert err <= 1e-15 * mpmath.sqrt(oracle[a][a][0] * oracle[b][b][0])


MP_DEGREES = (0, 1, 7, 30, 64, 100)


@pytest.mark.parametrize("nu", [0.7, 1.3, 2.0])
def test_slice_norms_and_gram_match_an_mpmath_oracle(nu):
    """<f, g> = sum_n conj(b_n) a_n n!/nu^n for f = sum q^n a_n and
    g = sum q^n b_n, in 40 digits, up to degree 100."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(int(10 * nu))
    # coefficients of the basis' scale sqrt(nu^n/n!): every term counts
    series = [QPowerSeries(tuple(
        Quaternion(*(rng.uniform(-1.0, 1.0, 4)
                     * math.sqrt(nu ** n / math.factorial(n))))
        for n in range(d + 1))) for d in MP_DEGREES]
    space = FockSliceSpace(nu, UNIT_TILTED, 128)
    with mpmath.workdps(40):
        weights = [mpmath.factorial(n) / mpmath.mpf(nu) ** n for n in range(101)]
        coeffs = [[tuple(map(mpmath.mpf, c.to_list())) for c in f.coeffs]
                  for f in series]
        oracle = [[[sum(w * _mp_qmul((b[0], -b[1], -b[2], -b[3]), a)[c]
                        for w, a, b in zip(weights, fa, fb)) for c in range(4)]
                   for fb in coeffs] for fa in coeffs]
        _assert_gram_matches(mpmath, space.gram(series), oracle)
        for a, f in enumerate(series):
            norm = space.norm_sq(f)
            assert abs(norm - oracle[a][a][0]) <= 1e-15 * oracle[a][a][0]


# 171!/nu^171 leaves double range at nu <= 1; a coefficient of 1e-100
# brings the norm back to about 1e109
_FAR = 171


@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_weights_beyond_double_range_match_an_mpmath_oracle(nu):
    """Norms and Grams whose monomial weights n!/nu^n leave double range
    while the values do not, on a slice and on C^2."""
    mpmath = pytest.importorskip("mpmath")
    small = Quaternion(1e-100, -3e-101, 2e-101, 0.0)
    f = QPowerSeries((1.0,) + (0.0,) * (_FAR - 1) + (small,))
    g = QPowerSeries((0.5,) + (0.0,) * (_FAR - 1) + (small * 2.0,))
    c = CPowerSeries(2, (((_FAR, 0), 1e-100), ((3, _FAR - 3), 2e-100j),
                         ((1, 1), 0.5)))
    with mpmath.workdps(40):
        def weight(*idx):
            return mpmath.fprod(mpmath.factorial(n) / mpmath.mpf(nu) ** n
                                for n in idx)

        coeffs = [[tuple(map(mpmath.mpf, q.to_list()))
                   for q in (s.coeffs[0], s.coeffs[-1])] for s in (f, g)]
        oracle = [[[sum(w * _mp_qmul((b[0], -b[1], -b[2], -b[3]), a)[k]
                        for w, a, b in zip((1, weight(_FAR)), fa, fb))
                    for k in range(4)] for fb in coeffs] for fa in coeffs]
        space = FockSliceSpace(nu, UNIT_TILTED)
        _assert_gram_matches(mpmath, space.gram([f, g]), oracle)
        assert abs(space.norm_sq(f) - oracle[0][0][0]) <= 1e-15 * oracle[0][0][0]
        want = mpmath.fsum(weight(*k) * abs(mpmath.mpc(v)) ** 2 for k, v in c.terms)
        got = FockCSpace(nu, 2).norm_sq(c)
        assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("dim, alpha", [(1, 0.7), (1, 1.3), (2, 0.9), (2, 2.0)])
def test_cd_norms_and_gram_match_an_mpmath_oracle(dim, alpha):
    """<f, g> = sum_n f_n conj(g_n) prod_l n_l!/alpha^{n_l}, in 40 digits,
    up to degree 100 in each coordinate."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(dim * 100 + int(10 * alpha))
    functions = []
    for top in MP_DEGREES:
        indices = {tuple(rng.integers(0, top + 1, dim)) for _ in range(40)}
        indices.add((top,) * dim)
        functions.append(CPowerSeries(dim, tuple(
            (idx, complex(*rng.uniform(-1.0, 1.0, 2)) * math.sqrt(math.prod(
                alpha ** n / math.factorial(n) for n in idx))) for idx in indices)))
    space = FockCSpace(alpha, dim, 128)
    with mpmath.workdps(40):
        def weight(idx):
            return mpmath.fprod(mpmath.factorial(n) / mpmath.mpf(alpha) ** n
                                for n in idx)

        terms = [dict(f.terms) for f in functions]
        oracle = [[mpmath.fsum(weight(k) * mpmath.mpc(c) * mpmath.conj(tg[k])
                               for k, c in tf.items() if k in tg)
                   for tg in terms] for tf in terms]
        oracle = [[(v.real, v.imag) for v in row] for row in oracle]
        gram = space.gram(functions)
        _assert_gram_matches(mpmath, np.stack([gram.real, gram.imag], -1), oracle)
        for a, f in enumerate(functions):
            norm = space.norm_sq(f)
            assert abs(norm - oracle[a][a][0]) <= 1e-15 * oracle[a][a][0]
