"""Every public constructor and transform entry point refuses a Gaussian
scale (nu, gamma, alpha) that is not a positive finite number, naming it,
and a gamma whose nu = 2/gamma^2 leaves double range.  Quaternion points,
imaginary units and C^d evaluation points with a non-finite component are
refused too."""

import math

import pytest

from rbffock import (CPowerSeries, FockCSpace, FockSliceSpace, GaussCSeries,
                     GaussSeries, HermiteCoeffFunction, HermiteCoeffFunctionD,
                     ImaginaryUnit, KernelParams, QPowerSeries, Quaternion,
                     RBFCSpace, RBFSliceSpace, gauss_hermite,
                     kernel_sum_tail_bound, rbf_basis_q, rbf_kernel_qslice,
                     rbf_sb_image_series, rbf_sb_image_series_d,
                     rbf_sb_transform, rbf_sb_transform_d, sb_transform,
                     slice_decompose, star_exp)
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
    "KernelParams": ("gamma", lambda v: KernelParams(v)),
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
    "KernelParams.nu": lambda v: KernelParams(v).nu,
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
    assert KernelParams(gamma).nu == 2.0 / (gamma * gamma)
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
