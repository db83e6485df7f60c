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

from .bases import rbf_basis_q
from .hypercomplex import Quaternion, intrinsic_exp_sq, star_exp

__all__ = [
    "NORMALIZATIONS",
    "KernelParams",
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


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel parameters; nu = 2/gamma^2 is always derived."""

    gamma: float
    normalization: str = "unitary"

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")

    @property
    def nu(self) -> float:
        return 2.0 / (self.gamma * self.gamma)


def rbf_kernel_c(gamma: float, z: complex, w: complex) -> complex:
    """Complex Gaussian RBF kernel exp(-(z - conj(w))^2 / gamma^2)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    u = complex(z) - complex(w).conjugate()
    return cmath.exp(-(u * u) / (gamma * gamma))


def _points(z, w, dtype=None):
    """Point arrays (..., d) of a common dimension d; leading axes broadcast."""
    z, w = (np.atleast_1d(np.asarray(v, dtype=dtype)) for v in (z, w))
    if z.shape[-1] != w.shape[-1]:
        raise ValueError(f"dimension mismatch: {z.shape[-1]} vs {w.shape[-1]}")
    return z, w


def _finite(kernel_id: str, compute):
    """compute(), or OverflowError in place of numpy's overflow warnings."""
    with np.errstate(all="ignore"):
        values = compute()
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{kernel_id} kernel overflows: a value is not finite")
    return values


def rbf_kernel_d(gamma: float, z, w):
    """Gaussian RBF kernel on C^d with the convention v^2 = sum_l v_l^2;
    on real points it is the real Gaussian exp(-|x - y|^2 / gamma^2)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    z, w = _points(z, w)
    u = z - np.conj(w)
    return _finite("rbf",
                   lambda: np.exp(-np.sum(u * u, axis=-1) / (gamma * gamma)))


def fock_kernel_d(alpha: float, z, w):
    """Fock-space reproducing kernel exp(alpha * z . conj(w)) on C^d."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    z, w = _points(z, w, complex)
    return _finite("fock",
                   lambda: np.exp(alpha * np.sum(z * np.conj(w), axis=-1)))


def rbf_kernel_qslice(gamma: float, q: Quaternion, p: Quaternion) -> Quaternion:
    """Quaternionic slice RBF kernel.

    exp(-q^2/gamma^2) * star_exp(2/gamma^2; q, p) * exp(-conj(p)^2/gamma^2),
    multiplied in exactly this order.  For p, q on a common slice this
    collapses to the complex kernel; on the diagonal it equals the real
    value exp(4 y^2 / gamma^2).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    left = intrinsic_exp_sq(gamma, q, -1)
    mid = star_exp(2.0 / (gamma * gamma), q, p)
    right = intrinsic_exp_sq(gamma, p.conjugate(), -1)
    value = (left * mid) * right
    if not all(map(math.isfinite, value.to_list())):
        raise OverflowError(f"rbf-qslice kernel overflows at gamma={gamma}: "
                            "the product of its three factors is not finite")
    return value


def kernel_sum_truncated(gamma: float, q: Quaternion, p: Quaternion,
                         n_terms: int) -> Quaternion:
    """Partial sum sum_{n<=n_terms} e_n(q) e_n(conj(p)) of the RBF kernel."""
    if not 0 <= n_terms <= 64:
        raise ValueError("n_terms must lie in [0, 64]")
    pbar = p.conjugate()
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for n in range(n_terms + 1):
        total = total + rbf_basis_q(gamma, n, q) * rbf_basis_q(gamma, n, pbar)
    return total


def kernel_sum_tail_bound(gamma: float, q: Quaternion, p: Quaternion,
                          n_terms: int) -> float:
    """Analytic bound on |kernel - partial sum| after n_terms terms.

    The tail of the star exponential is a factorial tail of
    t = nu |q| |p|; the intrinsic envelopes contribute at most
    exp((y_q^2 + y_p^2)/gamma^2).
    """
    nu = 2.0 / (gamma * gamma)
    t = nu * abs(q) * abs(p)
    n = n_terms + 1
    if t >= n:
        return math.inf
    log_head = n * math.log(t) - math.lgamma(n + 1) if t > 0.0 else -math.inf
    tail = math.exp(log_head) / (1.0 - t / n) if t > 0.0 else 0.0
    yq = q.vec_norm()
    yp = p.vec_norm()
    return math.exp((yq * yq + yp * yp) / (gamma * gamma)) * tail


def polynomial_kernel(degree: int, x, y):
    """(1 + <x, y>)^degree on R^d."""
    if not (float(degree).is_integer() and degree >= 1):
        raise ValueError("polynomial degree must be a whole number of at least 1")
    x, y = _points(x, y, float)
    return _finite("polynomial",
                   lambda: (1.0 + np.sum(x * y, axis=-1)) ** degree)


def exponential_kernel(x, y):
    """exp(<x, y>) on R^d."""
    x, y = _points(x, y, float)
    return _finite("exponential", lambda: np.exp(np.sum(x * y, axis=-1)))


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
