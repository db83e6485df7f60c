"""Every public constructor and transform entry point refuses a Gaussian
scale (nu, gamma, alpha) that is not a positive finite number, naming it,
and a gamma whose nu = 2/gamma^2 leaves double range."""

import math

import pytest

from rbffock import (CPowerSeries, FockCSpace, FockSliceSpace, GaussCSeries,
                     GaussSeries, HermiteCoeffFunction, HermiteCoeffFunctionD,
                     KernelParams, QPowerSeries, Quaternion, RBFCSpace,
                     RBFSliceSpace, gauss_hermite, kernel_sum_tail_bound,
                     rbf_kernel_qslice, rbf_sb_image_series,
                     rbf_sb_image_series_d, rbf_sb_transform,
                     rbf_sb_transform_d, sb_transform)
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
