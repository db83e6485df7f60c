"""Closed-form kernels: Gaussian RBF (complex, C^d, quaternionic slice),
Fock reproducing kernels, and the elementary polynomial/exponential kernels.

Complex kernels assemble the full exponent first and call exp once, which
avoids the cancellation a naive product of exponential factors can incur.
The quaternionic kernel multiplies its three factors in the fixed order
envelope(q) * star-exponential * envelope(conj(p)); the outer factors are
intrinsic so the order is mathematically immaterial, but pinning it keeps
results bit-reproducible.

The kernels on R^d and C^d take point arrays of shape (..., d) and
broadcast over the leading axes, so one call fills a whole Gram matrix.
Every kernel raises OverflowError, naming itself, instead of returning a
non-finite value.  ``KERNELS`` maps each kernel id of the CLI and of
``build_gram`` to its point layout, parameters and function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._checks import (finite_points, finite_values, nu_from_gamma, positive_finite,
                      whole_number)
from .bases import rbf_basis_q
from .hypercomplex import Quaternion, intrinsic_exp_sq, star_exp
from .series import basis_coeff

__all__ = [
    "NORMALIZATIONS",
    "KernelSpec",
    "KERNELS",
    "rbf_kernel_c",
    "rbf_kernel_d",
    "fock_kernel_d",
    "rbf_kernel_qslice",
    "kernel_sum_truncated",
    "kernel_sum_tail_bound",
    "polynomial_kernel",
    "exponential_kernel",
]

# "unitary" rescales the Segal-Bargmann prefactor so the transform is an
# exact isometry; "literal" keeps the (nu/pi)^{3/4} convention found in
# parts of the slice-Fock literature, which shifts norms by sqrt(nu/pi).
NORMALIZATIONS = ("unitary", "literal")


def rbf_kernel_c(gamma: float, z: complex, w: complex) -> complex:
    """Complex Gaussian RBF kernel exp(-(z - conj(w))^2 / gamma^2)."""
    positive_finite("gamma", gamma)
    finite_points([[z], [w]])
    u = complex(z) - complex(w).conjugate()
    return finite_values("the rbf kernel value",
                         lambda: cmath.exp(-(u * u) / (gamma * gamma)), [z, w])


def _points(z, w, dtype=None):
    """Finite point arrays (..., d) of a common dimension d; leading axes broadcast."""
    z, w = (np.atleast_1d(np.asarray(v, dtype=dtype)) for v in (z, w))
    if z.shape[-1] != w.shape[-1]:
        raise ValueError(f"dimension mismatch: {z.shape[-1]} vs {w.shape[-1]}")
    finite_points(z)
    finite_points(w)
    return z, w


def rbf_kernel_d(gamma: float, z, w):
    """Gaussian RBF kernel on C^d with the convention v^2 = sum_l v_l^2;
    on real points it is the real Gaussian exp(-|x - y|^2 / gamma^2)."""
    positive_finite("gamma", gamma)
    z, w = _points(z, w)

    def values():
        # one (..., d) temporary, squared in place (np.sum sees u * u) and
        # dropped before the exponent's temporaries are made
        u = z - np.conj(w)
        np.multiply(u, u, out=u)
        s = np.sum(u, axis=-1)
        del u
        return np.exp(-s / (gamma * gamma))
    return finite_values("the rbf kernel value", values)


def fock_kernel_d(alpha: float, z, w):
    """Fock-space reproducing kernel exp(alpha * z . conj(w)) on C^d."""
    positive_finite("alpha", alpha)
    z, w = _points(z, w, complex)
    return finite_values("the fock kernel value",
                         lambda: np.exp(alpha * np.sum(z * np.conj(w), axis=-1)))


def rbf_kernel_qslice(gamma: float, q: Quaternion, p: Quaternion) -> Quaternion:
    """Quaternionic slice RBF kernel.

    exp(-q^2/gamma^2) * star_exp(2/gamma^2; q, p) * exp(-conj(p)^2/gamma^2),
    multiplied in exactly this order.  For p, q on a common slice this
    collapses to the complex kernel; on the diagonal it equals the real
    value exp(4 y^2 / gamma^2).
    """
    nu = nu_from_gamma(gamma)
    left = intrinsic_exp_sq(gamma, q)
    mid = star_exp(nu, q, p)
    right = intrinsic_exp_sq(gamma, p.conjugate())
    return finite_values("the rbf-qslice kernel value",
                         lambda: (left * mid) * right, [q, p], numpy=False,
                         gamma=gamma)


def kernel_sum_truncated(gamma: float, q: Quaternion, p: Quaternion,
                         n_terms: int) -> Quaternion:
    """Partial sum sum_{n<=n_terms} e_n(q) e_n(conj(p)) of the RBF kernel."""
    n_terms = whole_number("n_terms", n_terms, 0, 64)
    pbar = p.conjugate()
    return finite_values("the truncated kernel sum", lambda: sum(
        (rbf_basis_q(gamma, n, q) * rbf_basis_q(gamma, n, pbar)
         for n in range(n_terms + 1)), Quaternion(0.0, 0.0, 0.0, 0.0)),
        [q, p], numpy=False)


def kernel_sum_tail_bound(gamma: float, q: Quaternion, p: Quaternion,
                          n_terms: int) -> float:
    """Analytic bound on |kernel - partial sum| after n_terms terms.

    The tail of the star exponential is a factorial tail of
    t = nu |q| |p|; the intrinsic envelopes contribute at most
    exp((y_q^2 + y_p^2)/gamma^2).  A bound beyond double range is inf.
    """
    nu = nu_from_gamma(gamma)
    t = nu * abs(q) * abs(p)
    n = whole_number("n_terms", n_terms) + 1
    if t >= n:
        return math.inf
    yq = q.vec_norm()
    yp = p.vec_norm()
    try:
        # the head t^n / n! is the squared basis normalization at scale t
        tail = basis_coeff(math.log(t), (n,)) ** 2 / (1.0 - t / n) if t > 0.0 else 0.0
        return math.exp((yq * yq + yp * yp) / (gamma * gamma)) * tail
    except OverflowError:
        return math.inf


def polynomial_kernel(degree: int, x, y):
    """(1 + <x, y>)^degree on R^d."""
    whole_number("degree", degree, 1)
    x, y = _points(x, y, float)
    return finite_values("the polynomial kernel value",
                         lambda: (1.0 + np.sum(x * y, axis=-1)) ** degree)


def exponential_kernel(x, y):
    """exp(<x, y>) on R^d."""
    x, y = _points(x, y, float)
    return finite_values("the exponential kernel value",
                         lambda: np.exp(np.sum(x * y, axis=-1)))


@dataclass(frozen=True)
class KernelSpec:
    """Point layout (coordinate type: float, complex or Quaternion), the
    (name, type) of each parameter, and the name of the kernel function,
    which takes the parameters, in order, and then two points.  Calls look
    the function up by name, so a wrapper rebound over it is seen."""

    layout: type
    params: tuple[tuple[str, type], ...]
    function_name: str

    def __call__(self, params: dict, a, b):
        kernel = globals()[self.function_name]
        return kernel(*(params[name] for name, _ in self.params), a, b)


KERNELS = {
    "rbf-real": KernelSpec(float, (("gamma", float),), "rbf_kernel_d"),
    "rbf-complex": KernelSpec(complex, (("gamma", float),), "rbf_kernel_d"),
    "fock": KernelSpec(complex, (("alpha", float),), "fock_kernel_d"),
    "rbf-qslice": KernelSpec(Quaternion, (("gamma", float),),
                             "rbf_kernel_qslice"),
    "polynomial": KernelSpec(float, (("degree", int),), "polynomial_kernel"),
    "exponential": KernelSpec(float, (), "exponential_kernel"),
}
