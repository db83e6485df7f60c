"""Every public constructor and transform entry point refuses a Gaussian
scale (nu, gamma, alpha) that is not a positive finite number, naming it."""

import math

import pytest

from rbffock import (CPowerSeries, FockCSpace, FockSliceSpace, GaussCSeries,
                     GaussSeries, HermiteCoeffFunction, HermiteCoeffFunctionD,
                     KernelParams, QPowerSeries, Quaternion, RBFCSpace,
                     RBFSliceSpace, gauss_hermite, rbf_sb_transform,
                     rbf_sb_transform_d, sb_transform)

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
