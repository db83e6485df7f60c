"""Every public constructor and transform entry point refuses a Gaussian
scale (nu, gamma, alpha) that is not a positive finite number, naming it,
and a gamma whose nu = 2/gamma^2 leaves double range.  Quaternion points,
imaginary units, series and kernel arguments and C^d evaluation points
with a non-finite component are refused too, naming the point."""

import json
import math
import re

import pytest

from rbffock import (I_DEFAULT, CPowerSeries, FockCSpace, FockSliceSpace,
                     GaussCSeries, GaussSeries, HermiteCoeffFunction,
                     HermiteCoeffFunctionD, ImaginaryUnit, QPowerSeries,
                     Quaternion, RBFCSpace, RBFSliceSpace,
                     fock_kernel_d, gauss_hermite, hermite_basis_l2, hermite_h,
                     hermite_psi, hermite_psi_all, intrinsic_exp_sq,
                     kernel_sum_tail_bound, kernel_sum_truncated, rbf_basis_c,
                     rbf_basis_d, rbf_basis_q, rbf_kernel_c, rbf_kernel_d,
                     rbf_kernel_qslice, rbf_sb_image_series,
                     rbf_sb_image_series_d, rbf_sb_kernel, rbf_sb_kernel_d,
                     rbf_sb_transform, rbf_sb_transform_d, sb_kernel,
                     sb_transform, slice_decompose, star_exp)
from rbffock import (beta_coeffs, cauchy_mul, m_operator, multi_indices,
                     polynomial_kernel, rbf_basis_series, sequential_norm)
from rbffock.cli import main
from rbffock.verify import VerifyConfig

BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]

_Q = Quaternion(0.1, 0.2, 0.0, 0.0)
_PHI = HermiteCoeffFunction(1.0, (1.0,))
_PHI_D = HermiteCoeffFunctionD(1.0, 1, (((0,), 1.0),))

CALLS = {
    "FockSliceSpace": ("nu", lambda v: FockSliceSpace(v)),
    "RBFSliceSpace": ("gamma", lambda v: RBFSliceSpace(v)),
    "FockCSpace": ("alpha", lambda v: FockCSpace(v, 2)),
    "RBFCSpace": ("gamma", lambda v: RBFCSpace(v, 2)),
    "gauss_hermite": ("nu", lambda v: gauss_hermite(10, v)),
    "GaussSeries": ("gamma", lambda v: GaussSeries(v, QPowerSeries((1.0,)))),
    "GaussCSeries": ("gamma",
                     lambda v: GaussCSeries(v, CPowerSeries(1, (((0,), 1.0),)))),
    "HermiteCoeffFunction": ("nu", lambda v: HermiteCoeffFunction(v, (1.0,))),
    "HermiteCoeffFunctionD": ("nu",
                              lambda v: HermiteCoeffFunctionD(v, 1, (((0,), 1.0),))),
    "sb_transform": ("nu", lambda v: sb_transform(v, _PHI, _Q)),
    "rbf_sb_transform": ("gamma", lambda v: rbf_sb_transform(v, _PHI, _Q)),
    "rbf_sb_transform_d": ("gamma",
                           lambda v: rbf_sb_transform_d(v, 1, _PHI_D, [0.1j])),
}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("target", CALLS)
def test_refuses_non_positive_or_non_finite(target, value):
    name, call = CALLS[target]
    with pytest.raises(ValueError, match=rf"^{name} must be a positive finite number"):
        call(value)


@pytest.mark.parametrize("target", CALLS)
def test_accepts_a_positive_finite_value(target):
    CALLS[target][1](1.0)


# gamma^2 underflows to 0, is subnormal (2/gamma^2 = inf), or overflows
OUT_OF_RANGE = [1e-200, 1e-160, 1e155, 1e200]

GAMMA_CALLS = {
    "RBFSliceSpace": lambda v: RBFSliceSpace(v),
    "RBFCSpace": lambda v: RBFCSpace(v, 2),
    "rbf_kernel_qslice": lambda v: rbf_kernel_qslice(v, _Q, _Q),
    "kernel_sum_tail_bound": lambda v: kernel_sum_tail_bound(v, _Q, _Q, 4),
    "rbf_sb_image_series": lambda v: rbf_sb_image_series(v, _PHI),
    "rbf_sb_transform": lambda v: rbf_sb_transform(v, _PHI, _Q),
    "rbf_sb_image_series_d": lambda v: rbf_sb_image_series_d(v, _PHI_D),
    "rbf_sb_transform_d": lambda v: rbf_sb_transform_d(v, 1, _PHI_D, [0.1j]),
    "VerifyConfig": lambda v: VerifyConfig(gamma=v),
}


@pytest.mark.parametrize("value", OUT_OF_RANGE, ids=repr)
@pytest.mark.parametrize("target", GAMMA_CALLS)
def test_refuses_gamma_with_nu_out_of_range(target, value):
    with pytest.raises(ValueError, match=r"^gamma must give a positive finite "
                                         r"nu = 2/gamma\^2"):
        GAMMA_CALLS[target](value)


@pytest.mark.parametrize("gamma", [1e-150, 1.0, 1e154])
def test_nu_is_two_over_gamma_squared(gamma):
    assert RBFSliceSpace(gamma, quad_order=8).nu == 2.0 / (gamma * gamma)


# a point with a NaN or infinite component lies on no slice, and a C^d
# evaluation point must be finite
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_imaginary_unit_refuses_non_finite(value):
    with pytest.raises(ValueError, match="norm 1"):
        ImaginaryUnit(value, value, value)
    with pytest.raises(ValueError, match="norm 1"):
        ImaginaryUnit.from_vector(value, 0.0, 0.0)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("component", range(4))
def test_slice_decompose_refuses_non_finite(component, value):
    parts = [0.0, 0.5, 0.0, 0.0]
    parts[component] = value
    with pytest.raises(ValueError, match="non-finite quaternion"):
        slice_decompose(Quaternion(*parts))


_NAN_Q = Quaternion(0.0, math.nan, 0.0, 0.0)

POINT_CALLS = {
    "rbf_basis_q": lambda: rbf_basis_q(1.0, 2, _NAN_Q),
    "star_exp": lambda: star_exp(1.0, _NAN_Q, _Q),
    "rbf_kernel_qslice": lambda: rbf_kernel_qslice(1.0, _Q, _NAN_Q),
    "RBFSliceSpace.reproduce": lambda: RBFSliceSpace(1.0, quad_order=8).reproduce(
        GaussSeries(1.0, QPowerSeries((1.0,))), _NAN_Q),
}


@pytest.mark.parametrize("target", POINT_CALLS)
def test_quaternion_point_refuses_nan(target):
    with pytest.raises(ValueError, match="non-finite quaternion"):
        POINT_CALLS[target]()


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                   complex(0.0, -math.inf)], ids=repr)
@pytest.mark.parametrize("space", ["FockCSpace", "RBFCSpace"])
def test_cd_reproduce_refuses_non_finite_point(space, value):
    series = CPowerSeries(2, (((1, 0), 1.0),))
    if space == "FockCSpace":
        target, f = FockCSpace(1.0, 2, 8), series
    else:
        target, f = RBFCSpace(1.0, 2, 8), GaussCSeries(1.0, series)
    with pytest.raises(ValueError, match="must be finite"):
        target.reproduce(f, [0.1, value])


NAN = math.nan

# entry points that take points refuse a non-finite one, naming it
NON_FINITE_POINT_CALLS = {
    "QPowerSeries.eval": lambda: QPowerSeries((1.0, 2.0)).eval(_NAN_Q),
    "CPowerSeries.eval": lambda: CPowerSeries(1, (((1,), 1.0),)).eval((NAN,)),
    "GaussCSeries.eval": lambda: GaussCSeries(
        1.0, CPowerSeries(1, (((1,), 1.0),))).eval((complex(math.inf, 0.0),)),
    "rbf_kernel_c": lambda: rbf_kernel_c(1.0, NAN, 0j),
    "rbf_basis_c": lambda: rbf_basis_c(1.0, 2, NAN),
    "sb_transform": lambda: sb_transform(1.0, hermite_basis_l2(1.0, 1),
                                         Quaternion(NAN, 0.0, 0.0, 0.0)),
    "rbf_sb_transform_d": lambda: rbf_sb_transform_d(1.0, 1, _PHI_D, [NAN]),
    "rbf_sb_transform_d-quadrature": lambda: rbf_sb_transform_d(
        1.0, 1, _PHI_D, [NAN], method="quadrature"),
    "rbf_kernel_d": lambda: rbf_kernel_d(1.0, [[0.0, 1.0], [NAN, 0.0]], [0.0, 0.0]),
    "fock_kernel_d": lambda: fock_kernel_d(1.0, [0.5j], [complex(0.0, NAN)]),
    # the real point x of the transform kernels and the Hermite functions
    "sb_kernel": lambda: sb_kernel(1.0, _Q, NAN),
    "rbf_sb_kernel": lambda: rbf_sb_kernel(1.0, _Q, NAN),
    "rbf_sb_kernel_d": lambda: rbf_sb_kernel_d(1.0, [0j], [NAN]),
    "hermite_psi": lambda: hermite_psi(1.0, 2, NAN),
    "hermite_psi_all": lambda: hermite_psi_all(1.0, 3, [0.5, NAN]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", NON_FINITE_POINT_CALLS)
def test_non_finite_point_refused(target):
    with pytest.raises(ValueError, match=r"point \[.*(nan|inf).*\] must be finite"):
        NON_FINITE_POINT_CALLS[target]()


# a finite point whose transform value leaves double range names the point
TRANSFORM_OVERFLOW_CALLS = {
    "rbf_sb_transform-exact": lambda: rbf_sb_transform(
        1.0, hermite_basis_l2(2.0, 1), [[0.1, 0, 0, 0], [0, 30, 0, 0]]),
    "sb_transform-quadrature": lambda: sb_transform(
        2.0, hermite_basis_l2(1.0, 1), Quaternion(0, 0, 27, 0)),
    "rbf_sb_transform_d-exact": lambda: rbf_sb_transform_d(
        1.0, 2, HermiteCoeffFunctionD(2.0, 2, (((1, 0), 1.0),)), [300j, 0j]),
    "rbf_sb_transform_d-quadrature": lambda: rbf_sb_transform_d(
        1.0, 2, HermiteCoeffFunctionD(1.0, 2, (((1, 0), 1.0),)), [300j, 0j]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", TRANSFORM_OVERFLOW_CALLS)
def test_transform_overflow_names_the_point(target):
    with pytest.raises(OverflowError, match=r"value at point \[.*(30|27|300j).*\] "
                                            "is not finite"):
        TRANSFORM_OVERFLOW_CALLS[target]()


@pytest.mark.filterwarnings("error")
def test_c2_quadrature_refusal_names_the_point_not_its_block():
    # the quadrature route sums a block of points at once; the refusal
    # still names the one point of the block whose value overflows
    phi = HermiteCoeffFunctionD(1.0, 2, (((1, 0), 1.0), ((0, 2), 0.5)))
    points = [[0.5, 0.1j], [0.3, 40j], [0.2, 0.2]]
    with pytest.raises(OverflowError, match=re.escape(
            "the transform value at point [(0.3+0j), 40j] is not finite")):
        rbf_sb_transform_d(1.0, 2, phi, points)


# a finite point whose series value leaves double range names the point
SERIES_OVERFLOW_CALLS = {
    "QPowerSeries.eval": lambda: QPowerSeries((0.0, 0.0, 1.0)).eval(
        Quaternion(1e200, 0, 0, 0)),
    "GaussSeries.eval": lambda: GaussSeries(1.0, QPowerSeries(
        (0.0, 0.0, 1.0))).eval(Quaternion(1e200, 0, 0, 0)),
    "CPowerSeries.eval": lambda: CPowerSeries(1, (((2,), 1.0),)).eval(
        (1e200,)),
    "CPowerSeries.eval_points": lambda: CPowerSeries(
        2, (((1, 1), 1.0),)).eval_points([[0.5, 1j], [1e200, 1e200j]]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", SERIES_OVERFLOW_CALLS)
def test_series_overflow_names_the_point(target):
    with pytest.raises(OverflowError, match=r"series value at point "
                                            r"\[.*1e\+200.*\] is not finite"):
        SERIES_OVERFLOW_CALLS[target]()


_ONE_D = CPowerSeries(1, (((0,), 1.0),))

# a finite point whose value leaves double range is refused, naming the
# point, not returned as inf or NaN or after a RuntimeWarning
SILENT_OVERFLOW_CALLS = {
    "GaussCSeries.eval": (lambda: GaussCSeries(1.0, _ONE_D).eval((30j,)),
                          r"series value at point \[30j\]"),
    "RBFCSpace.reproduce": (lambda: RBFCSpace(1.0, 1).reproduce(
        GaussCSeries(1.0, _ONE_D), (30j,)), r"value at point \[30j\]"),
    "FockCSpace.reproduce": (lambda: FockCSpace(2.0, 1).reproduce(
        _ONE_D, (400 + 0j,)), r"value at point \[\(400\+0j\)\]"),
    "hermite_h": (lambda: hermite_h(1.0, 60, 1e200),
                  r"h_n\(x\) with nu=1.0, n=60 at point \[1e\+200\]"),
    "hermite_h-array": (lambda: hermite_h(1.0, 60, [1.0, 1e200, 1e300]),
                        r"at point \[1e\+200\]"),
    "GaussSeries.eval_slice_grid": (lambda: GaussSeries(1.0, QPowerSeries(
        (1.0,))).eval_slice_grid([0.0 + 30.0j], I_DEFAULT),
        r"series value on a slice with unit=\[0.0, 1.0, 0.0, 0.0\] "
        r"at point \[30j\]"),
    "QPowerSeries.eval_slice_grid": (lambda: QPowerSeries(
        (0.0, 0.0, 1.0)).eval_slice_grid([1e200 + 0.0j], I_DEFAULT),
        r"series value on a slice with unit=\[0.0, 1.0, 0.0, 0.0\] "
        r"at point \[\(1e\+200\+0j\)\]"),
    "RBFSliceSpace.reproduce": (lambda: RBFSliceSpace(1.0).reproduce(
        GaussSeries(1.0, QPowerSeries((1.0,))), Quaternion(0, 25, 0, 0)),
        r"value at point \[0.0, 25.0, 0.0, 0.0\]"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", SILENT_OVERFLOW_CALLS)
def test_silent_overflow_now_names_the_point(target):
    call, named = SILENT_OVERFLOW_CALLS[target]
    with pytest.raises(OverflowError, match=named + " is not finite"):
        call()


# a range error of math or cmath names the point too
BARE_OVERFLOW_CALLS = {
    "rbf_kernel_c": (lambda: rbf_kernel_c(1.0, 30j, 0j), r"\[30j, 0j\]"),
    "rbf_basis_c": (lambda: rbf_basis_c(1.0, 2, 30j), r"\[30j\]"),
    "rbf_basis_q": (lambda: rbf_basis_q(1.0, 2, Quaternion(0, 30, 0, 0)),
                    r"\[30j\]"),
    "rbf_basis_d": (lambda: rbf_basis_d(1.0, (0, 2), (0.5, 30j)),
                    r"\[0.5, 30j\]"),
    "kernel_sum_truncated": (lambda: kernel_sum_truncated(
        1.0, Quaternion(0, 30, 0, 0), _Q, 3),
        r"\[\[0.0, 30.0, 0.0, 0.0\], \[0.1, 0.2, 0.0, 0.0\]\]"),
    "sb_kernel": (lambda: sb_kernel(1.0, Quaternion(0, 40, 0, 0), 0.0),
                  r"\[\[0.0, 40.0, 0.0, 0.0\], 0.0\]"),
    "rbf_sb_kernel": (lambda: rbf_sb_kernel(1.0, Quaternion(0, 30, 0, 0), 0.0),
                      r"\[\[0.0, 30.0, 0.0, 0.0\], 0.0\]"),
    "rbf_sb_kernel_d": (lambda: rbf_sb_kernel_d(1.0, [30j], [0.0]),
                        r"\[\[30j\], \[0.0\]\]"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", BARE_OVERFLOW_CALLS)
def test_math_range_error_names_the_point(target):
    call, point = BARE_OVERFLOW_CALLS[target]
    with pytest.raises(OverflowError, match=rf"at point {point} is not "
                                            "finite: it overflows"):
        call()


# gamma = 1e-300 passes the positive-finite check, but gamma^2 underflows
# to zero: Python's division by it is refused as an overflow
UNDERFLOWING_GAMMA_CALLS = {
    "rbf_kernel_c": lambda: rbf_kernel_c(1e-300, 1j, 0j),
    "rbf_basis_c": lambda: rbf_basis_c(1e-300, 1, 1j),
    "intrinsic_exp_sq": lambda: intrinsic_exp_sq(1e-300, _Q),
    "rbf_sb_kernel": lambda: rbf_sb_kernel(1e-300, _Q, 0.0),
    "rbf_sb_kernel_d": lambda: rbf_sb_kernel_d(1e-300, [1j], [0.0]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", UNDERFLOWING_GAMMA_CALLS)
def test_gamma_whose_square_underflows_names_the_point(target):
    with pytest.raises(OverflowError, match=r"at point \[.*\] is not finite"):
        UNDERFLOWING_GAMMA_CALLS[target]()


def test_kernel_overflow_stays_overflow():
    with pytest.raises(OverflowError, match="overflows"):
        rbf_kernel_d(1.0, [30j], [30j])


_HUGE_Q = Quaternion(0.0, 1.7e308, 1.7e308, 0.0)


def test_slice_decompose_refuses_vector_norm_beyond_double_range():
    with pytest.raises(ValueError, match="vector part .* beyond double range"):
        slice_decompose(_HUGE_Q)


@pytest.mark.parametrize("call", [
    lambda q: sb_transform(2.0, hermite_basis_l2(2.0, 0), q),
    lambda q: sb_transform(2.0, hermite_basis_l2(1.0, 0), q),
    lambda q: rbf_sb_transform(1.0, hermite_basis_l2(2.0, 0), q)],
    ids=["sb_transform-exact", "sb_transform-quadrature", "rbf_sb_transform"])
def test_transforms_refuse_vector_norm_beyond_double_range(call):
    # every slice transform decomposes its points, the exact route too
    with pytest.raises(ValueError, match=r"vector part of \[0.0, 1.5e\+308, "
                                         r"1.5e\+308, 0.0\] has a norm beyond"):
        call([0.0, 1.5e308, 1.5e308, 0.0])


def test_cli_kernel_names_pair_with_huge_vector_part(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"kernel": "rbf-qslice", "gamma": 1.0,
                                "pairs": [[_HUGE_Q.to_list(), [1, 0, 0, 0]]]}))
    assert main(["kernel", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "pairs[0]" in err and "beyond double range" in err


@pytest.mark.parametrize("index", [(-1, 0), (0.5, 0), (0, 2.5), (1,), (1, 0, 0)],
                         ids=["negative", "fraction", "fraction-last",
                              "short", "long"])
@pytest.mark.parametrize("target", [
    lambda index: CPowerSeries(2, ((index, 1.0),)),
    lambda index: HermiteCoeffFunctionD(2.0, 2, ((index, 1.0), ((2, 0), 0.0))),
], ids=["CPowerSeries", "HermiteCoeffFunctionD"])
def test_bad_multi_index_is_refused_naming_it(target, index):
    with pytest.raises(ValueError,
                       match=re.escape(f"bad multi-index {index!r} for dimension 2")):
        target(index)


def test_whole_number_multi_index_is_kept():
    assert CPowerSeries(2, (((2.0, 0), 1.0),)).terms == (((2, 0), 1.0),)
    phi = HermiteCoeffFunctionD(2.0, 2, (((1.0, 1), 1.0),))
    assert phi.terms == (((1, 1), 1.0),)


@pytest.mark.parametrize("target", [lambda: FockCSpace(1.0, 2, quad_order=0),
                                    lambda: RBFCSpace(1.0, 1, quad_order=0)],
                         ids=["FockCSpace", "RBFCSpace"])
def test_cd_space_refuses_quad_order_zero(target):
    with pytest.raises(ValueError, match=re.escape("order must lie in [1, 512]")):
        target()


@pytest.mark.parametrize("order", [0, 513])
@pytest.mark.parametrize("space", [FockSliceSpace, RBFSliceSpace])
def test_slice_space_refuses_a_quad_order_without_a_rule(space, order):
    with pytest.raises(ValueError, match=re.escape("order must lie in [1, 512]")):
        space(1.0, quad_order=order)
    with pytest.raises(TypeError):
        space(1.0, quad_order=order + 0.5)


@pytest.mark.parametrize("make", [
    lambda: FockSliceSpace(1.0 + 2.0 ** -30),
    lambda: RBFSliceSpace(1.0 + 2.0 ** -29),
    lambda: FockCSpace(1.0 + 2.0 ** -28, 2),
    lambda: RBFCSpace(1.0 + 2.0 ** -27, 3),
], ids=["FockSliceSpace", "RBFSliceSpace", "FockCSpace", "RBFCSpace"])
def test_constructing_a_space_builds_no_rule_or_grid(make):
    from rbffock import spaces

    caches = (gauss_hermite, spaces._grid)
    before = [cache.cache_info() for cache in caches]
    make()
    assert [cache.cache_info() for cache in caches] == before


@pytest.mark.parametrize("dim", [0, -1, 1.5, math.nan, math.inf, "2", None],
                         ids=repr)
@pytest.mark.parametrize("target", [
    lambda dim: CPowerSeries(dim, ()),
    lambda dim: HermiteCoeffFunctionD(1.0, dim, (((), 1.0),)),
    lambda dim: FockCSpace(1.0, dim),
    lambda dim: RBFCSpace(1.0, dim),
], ids=["CPowerSeries", "HermiteCoeffFunctionD", "FockCSpace", "RBFCSpace"])
def test_dimension_must_be_a_whole_number_of_at_least_one(target, dim):
    with pytest.raises(ValueError, match=re.escape(
            f"dim must be a whole number of at least 1, got {dim!r}")):
        target(dim)


def test_whole_number_dimension_is_kept():
    assert CPowerSeries(2.0, ()).dim == 2
    assert type(HermiteCoeffFunctionD(1.0, 2.0, ()).dim) is int
    assert RBFCSpace(1.0, 2.0).dim == 2


_SERIES = QPowerSeries((1.0, 2.0))


# each call with a whole-number parameter out of its domain: the parameter,
# its least value, the value given and the call
@pytest.mark.parametrize("name, minimum, value, call", [
    ("degree", 0, -1, lambda: QPowerSeries.monomial(-1)),
    ("degree", 0, -1, lambda: QPowerSeries.exp_sq(1.0, degree=-1)),
    ("n", 0, -1, lambda: hermite_basis_l2(1.0, -1)),
    ("max_degree", 0, -1, lambda: cauchy_mul(_SERIES, _SERIES, max_degree=-1)),
    ("n", 0, 1.5, lambda: rbf_basis_c(1.0, 1.5, 0.5j)),
    ("n", 0, -1, lambda: rbf_basis_c(1.0, -1, 0.5j)),
    ("n", 0, -1, lambda: rbf_basis_q(1.0, -1, _Q)),
    ("n", 0, -1, lambda: rbf_basis_series(1.0, -1)),
    ("n", 0, 2.5, lambda: rbf_basis_series(1.0, 2.5)),
    ("n", 0, -1, lambda: rbf_basis_d(1.0, (1, -1), (0.5j, 0.5))),
    ("k_max", 0, -1, lambda: beta_coeffs(1.0, _SERIES.coeffs, k_max=-1)),
    ("k_max", 0, -1, lambda: sequential_norm(1.0, _SERIES.coeffs, k_max=-1)),
    ("out_degree", 0, -1, lambda: m_operator(1.0, 1, _SERIES, out_degree=-1)),
    ("dim", 1, 0, lambda: multi_indices(0, 2)),
    ("dim", 1, 1.5, lambda: multi_indices(1.5, 2)),
    ("degree", 1, 1.5, lambda: polynomial_kernel(1.5, (1.0,), (1.0,))),
], ids=["monomial", "exp_sq", "hermite_basis_l2", "cauchy_mul",
        "rbf_basis_c-fraction", "rbf_basis_c", "rbf_basis_q",
        "rbf_basis_series", "rbf_basis_series-fraction", "rbf_basis_d",
        "beta_coeffs", "sequential_norm", "m_operator", "multi_indices-0",
        "multi_indices-fraction", "polynomial_kernel"])
def test_whole_number_parameter_is_refused_naming_it(name, minimum, value, call):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be a whole number of at least {minimum}, got {value!r}")):
        call()


_Q1 = Quaternion(1.0, 0.0, 0.0, 0.0)


# whole-number parameters with a range: each is checked as a whole number
# before its range, so a fraction inside the range is refused, naming it
@pytest.mark.parametrize("name, domain, value, call", [
    ("n", "in [0, 64]", 1.5, lambda: hermite_h(1.0, 1.5, 0.3)),
    ("n", "in [0, 64]", 1.5, lambda: hermite_psi(1.0, 1.5, 0.3)),
    ("n_max", "in [0, 64]", 2.5, lambda: hermite_psi_all(1.0, 2.5, 0.3)),
    ("n", "in [0, 64]", 65, lambda: hermite_h(1.0, 65, 0.3)),
    ("n_terms", "in [0, 64]", 1.5,
     lambda: kernel_sum_truncated(1.0, _Q1, _Q1, 1.5)),
    ("n_terms", "in [0, 64]", 65,
     lambda: kernel_sum_truncated(1.0, _Q1, _Q1, 65)),
    ("n_terms", "of at least 0", -1,
     lambda: kernel_sum_tail_bound(1.0, _Q1, _Q1, -1)),
    ("n_terms", "of at least 0", 1.5,
     lambda: kernel_sum_tail_bound(1.0, _Q1, _Q1, 1.5)),
], ids=["hermite_h-fraction", "hermite_psi-fraction", "hermite_psi_all-fraction",
        "hermite_h-above", "kernel_sum_truncated-fraction",
        "kernel_sum_truncated-above", "kernel_sum_tail_bound-negative",
        "kernel_sum_tail_bound-fraction"])
def test_whole_number_in_its_range_is_refused_naming_it(name, domain, value, call):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be a whole number {domain}, got {value!r}")):
        call()


# each RBF space: the space, a member of scale gamma, a Fock-side series,
# and a point whose envelope overflows, with its name in the refusal
RBF_SPACES = {
    "RBFSliceSpace": (lambda: RBFSliceSpace(1.0, quad_order=8),
                      lambda gamma: GaussSeries(gamma, QPowerSeries((1.0,))),
                      QPowerSeries((1.0,)), Quaternion(0, 30, 0, 0),
                      r"\[0.0, 30.0, 0.0, 0.0\]"),
    "RBFCSpace": (lambda: RBFCSpace(1.0, 2, 8),
                  lambda gamma: GaussCSeries(gamma, CPowerSeries(2, (((1, 0), 1.0),))),
                  CPowerSeries(2, (((1, 0), 1.0),)), (30j, 0j), r"\[30j, 0j\]"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", RBF_SPACES)
def test_rbf_space_refuses_what_it_does_not_hold(name):
    make, member, fock_series, far, named = RBF_SPACES[name]
    space = make()
    calls = [lambda f: space.inner_product(f, member(1.0)), space.norm_sq,
             lambda f: space.gram([member(1.0), f]),
             lambda f: space.reproduce(f, far)]
    for call in calls:
        with pytest.raises(TypeError, match=f"must be {type(member(1.0)).__name__} "):
            call(fock_series)
        with pytest.raises(ValueError, match=re.escape(
                "element envelope gamma=2.0 does not match space gamma=1.0")):
            call(member(2.0))
        if name == "RBFCSpace":
            with pytest.raises(ValueError, match=re.escape("series on C^1 in a space on C^2")):
                call(GaussCSeries(1.0, _ONE_D))
    with pytest.raises(OverflowError, match=f"at point {named} is not finite"):
        space.reproduce(member(1.0), far)


@pytest.mark.parametrize("method", ["auto", "quadrature"])
@pytest.mark.parametrize("dim, z", [(2, [0.1, 0.2]), (0, [])], ids=["C2", "C0"])
def test_transform_d_refuses_phi_of_another_dimension(dim, z, method):
    # the exact route evaluated phi on R^1 at the first coordinate alone
    phi = HermiteCoeffFunctionD(2.0, 1, (((1,), 1.0),))
    with pytest.raises(ValueError, match=re.escape(
            f"phi is a function on R^1, not on R^{dim}")):
        rbf_sb_transform_d(1.0, dim, phi, z, method=method)


_HUGE = QPowerSeries((Quaternion(1e200, 0.0, 0.0, 0.0),))
_HUGE_C = CPowerSeries(2, (((1, 0), 1e200),))

# inner products, norms and Grams beyond double range, with the Fock
# space's scale that the refusal names (an RBF space's is nu = 2/gamma^2)
NON_FINITE_INNER_PRODUCTS = {
    "FockSliceSpace.norm_sq": (lambda: FockSliceSpace(1.0).norm_sq(_HUGE), "nu=1.0"),
    "FockCSpace.gram": (lambda: FockCSpace(1.0, 1).gram(
        [CPowerSeries(1, (((0,), 1e200),))]), "alpha=1.0"),
    # ||q^180||^2 = 180! 2^180, about 3e358: the weight itself overflows
    "weight-overflow": (lambda: FockSliceSpace(0.5, quad_order=200).norm_sq(
        QPowerSeries.monomial(180)), "nu=0.5"),
    "RBFSliceSpace.inner_product": (lambda: RBFSliceSpace(1.0).inner_product(
        GaussSeries(1.0, _HUGE), GaussSeries(1.0, QPowerSeries((1e200,)))), "nu=2.0"),
    "RBFCSpace.norm_sq": (lambda: RBFCSpace(1.0, 2).norm_sq(
        GaussCSeries(1.0, _HUGE_C)), "alpha=2.0"),
    "FockCSpace.inner_product": (lambda: FockCSpace(0.5, 2).inner_product(
        _HUGE_C, _HUGE_C), "alpha=0.5"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", NON_FINITE_INNER_PRODUCTS)
def test_inner_product_beyond_double_range_is_refused(target):
    call, named = NON_FINITE_INNER_PRODUCTS[target]
    with pytest.raises(OverflowError, match=re.escape(
            f"an inner product with {named} is not finite: it overflows")):
        call()


@pytest.mark.filterwarnings("error")
def test_inner_product_is_kept_when_only_a_norm_overflows():
    # |<f, g>| <= ||f|| ||g||: ||f||^2 = 1e400 leaves double range, <f, g> not
    f, g = _HUGE, QPowerSeries((Quaternion(1e-200, 0.0, 0.0, 0.0),))
    assert FockSliceSpace(1.0).inner_product(f, g).w == 1.0
    c = CPowerSeries(2, (((1, 0), 1e-200),))
    assert FockCSpace(1.0, 2).inner_product(_HUGE_C, c) == 1.0
