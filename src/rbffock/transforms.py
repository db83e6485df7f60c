"""Segal-Bargmann-type integral transforms onto the Fock and RBF spaces.

Two prefactor conventions coexist in the literature for the slice
Segal-Bargmann kernel.  The generating series over the normalized weighted
Hermite functions sums to (nu/pi)^{1/4} exp(-(nu/2)(q^2+x^2)+nu sqrt2 q x),
and only with that prefactor is the transform an exact isometry; the
``unitary`` normalization (default) uses it.  The ``literal`` normalization
keeps the (nu/pi)^{3/4} prefactor some sources print, which multiplies
every image by sqrt(nu/pi) and breaks unitarity by exactly that constant.
The d-dimensional kernel (2/(pi gamma^2))^{d/4} exp(-(sqrt2 z - x)^2 /
gamma^2) is already unitary, so it takes no normalization switch.

Transforms of functions given by Hermite coefficients are computed exactly
through the action on the basis; quadrature against the closed-form kernel
is kept as an independent route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quatarray as qa
from ._checks import nu_from_gamma, positive_finite
from .bases import hermite_psi_all
from .hypercomplex import (Quaternion, embed_in_slice, intrinsic_exp_sq,
                           slice_decompose)
from .kernels import NORMALIZATIONS
from .quadrature import DEFAULT_QUAD_ORDER, gauss_hermite, integrate_rd
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     multi_factorial, multi_order)

__all__ = [
    "HermiteCoeffFunction",
    "HermiteCoeffFunctionD",
    "hermite_basis_l2",
    "sb_kernel",
    "sb_transform",
    "sb_image_series",
    "rbf_sb_kernel",
    "rbf_sb_transform",
    "rbf_sb_image_series",
    "rbf_sb_kernel_d",
    "rbf_sb_transform_d",
    "rbf_sb_image_series_d",
]


def _check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")


@dataclass(frozen=True)
class HermiteCoeffFunction:
    """Square-integrable function sum_n psi_n(x; nu) c_n, c_n quaternionic.

    The coefficients are the function: the squared L^2 norm is exactly
    sum |c_n|^2, and transform actions are exact on this form.
    """

    nu: float
    coeffs: tuple[Quaternion, ...]

    def __post_init__(self) -> None:
        positive_finite("nu", self.nu)
        coerced = tuple(c if isinstance(c, Quaternion) else Quaternion.from_real(c)
                        for c in self.coeffs)
        object.__setattr__(self, "coeffs", coerced)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def norm_sq(self) -> float:
        return math.fsum(c.norm_sq() for c in self.coeffs)

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Values at real points, shape (len(x), 4)."""
        x = np.asarray(x, dtype=float)
        psis = hermite_psi_all(self.nu, self.degree, x)
        cmat = np.array([c.to_list() for c in self.coeffs])
        return np.einsum("nm,nc->mc", psis, cmat)

    def to_json(self) -> dict:
        return {"nu": self.nu, "coeffs": [c.to_list() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "HermiteCoeffFunction":
        return cls(float(data["nu"]),
                   tuple(Quaternion.from_list(c) for c in data["coeffs"]))


def hermite_basis_l2(nu: float, n: int) -> HermiteCoeffFunction:
    """The basis function psi_n itself, as a coefficient vector."""
    coeffs = (Quaternion.from_real(0.0),) * n + (Quaternion.from_real(1.0),)
    return HermiteCoeffFunction(nu, coeffs)


@dataclass(frozen=True)
class HermiteCoeffFunctionD:
    """Function on R^d given by multi-index Hermite coefficients (complex)."""

    nu: float
    dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self) -> None:
        positive_finite("nu", self.nu)
        cleaned = tuple((tuple(int(i) for i in idx), complex(c))
                        for idx, c in self.terms)
        for idx, _ in cleaned:
            if len(idx) != self.dim:
                raise ValueError(f"index {idx} has wrong length for dim={self.dim}")
        object.__setattr__(self, "terms", tuple(sorted(
            cleaned, key=lambda t: (multi_order(t[0]), t[0]))))

    def norm_sq(self) -> float:
        return math.fsum(abs(c) ** 2 for _, c in self.terms)

    def eval_points(self, xpts: np.ndarray) -> np.ndarray:
        """Values at (npoints, dim) real points, complex."""
        xpts = np.asarray(xpts, dtype=float)
        n_max = max((max(idx) for idx, _ in self.terms), default=0)
        tables = [hermite_psi_all(self.nu, n_max, xpts[:, axis])
                  for axis in range(self.dim)]
        total = np.zeros(xpts.shape[0], dtype=complex)
        for idx, c in self.terms:
            p = np.full(xpts.shape[0], c, dtype=complex)
            for axis, nl in enumerate(idx):
                p *= tables[axis][nl]
            total += p
        return total


# ---------------------------------------------------------------------------
# one-variable (quaternionic slice) transforms

def _sb_prefactor(nu: float, normalization: str) -> float:
    _check_normalization(normalization)
    power = 0.25 if normalization == "unitary" else 0.75
    return (nu / math.pi) ** power


def sb_kernel(nu: float, q: Quaternion, x: float,
              normalization: str = "unitary") -> Quaternion:
    """Segal-Bargmann kernel c(nu) exp(-(nu/2)(q^2+x^2) + nu sqrt2 q x).

    Intrinsic in q, hence computed on the slice of q.  c(nu) is
    (nu/pi)^{1/4} under ``unitary`` and (nu/pi)^{3/4} under ``literal``.
    """
    positive_finite("nu", nu)
    sp = slice_decompose(q)
    zq = complex(sp.x, sp.y)
    val = _sb_prefactor(nu, normalization) * cmath.exp(
        -0.5 * nu * (zq * zq + x * x) + nu * math.sqrt(2.0) * zq * x)
    return embed_in_slice(val, sp.unit)


def _sb_kernel_nodes(nu: float, q: Quaternion, x: np.ndarray,
                     normalization: str):
    """Kernel values at many x for fixed q: complex array on the slice of q."""
    sp = slice_decompose(q)
    zq = complex(sp.x, sp.y)
    vals = _sb_prefactor(nu, normalization) * np.exp(
        -0.5 * nu * (zq * zq + x * x) + nu * math.sqrt(2.0) * zq * x)
    return vals, sp.unit


def sb_image_series(nu: float, phi: HermiteCoeffFunction,
                    normalization: str = "unitary") -> QPowerSeries:
    """Exact Fock-side image: psi_n maps to nu^{n/2} q^n / sqrt(n!)."""
    _check_normalization(normalization)
    if phi.nu != nu:
        raise ValueError("coefficient basis scale must match the transform")
    extra = math.sqrt(nu / math.pi) if normalization == "literal" else 1.0
    coeffs = []
    for n, c in enumerate(phi.coeffs):
        scale = extra * math.exp(0.5 * (n * math.log(nu) - math.lgamma(n + 1)))
        coeffs.append(c * scale)
    return QPowerSeries(tuple(coeffs))


def sb_transform(nu: float, phi, q: Quaternion,
                 normalization: str = "unitary", method: str = "auto",
                 quad_order: int = DEFAULT_QUAD_ORDER) -> Quaternion:
    """Apply the Segal-Bargmann transform to phi and evaluate at q.

    ``method="coeffs"`` uses the exact action on Hermite coefficients,
    ``method="quadrature"`` integrates against the closed-form kernel, and
    ``auto`` picks the exact path whenever it applies.
    """
    positive_finite("nu", nu)
    _check_normalization(normalization)
    if method not in ("auto", "coeffs", "quadrature"):
        raise ValueError("method must be auto, coeffs, or quadrature")

    exact_ok = isinstance(phi, HermiteCoeffFunction) and phi.nu == nu
    if method == "coeffs" or (method == "auto" and exact_ok):
        if not exact_ok:
            raise ValueError("exact path needs Hermite coefficients with a "
                             "matching scale")
        return sb_image_series(nu, phi, normalization).eval(q)

    if not isinstance(phi, HermiteCoeffFunction):
        raise TypeError("quadrature path needs HermiteCoeffFunction")
    if 2 * quad_order - 1 < phi.degree:
        raise ValueError("Hermite degree exceeds quadrature exactness; "
                         "raise quad_order")
    nu_rule = 0.5 * (nu + phi.nu)
    rule = gauss_hermite(quad_order, nu_rule)
    x = rule.nodes
    kvals, unit = _sb_kernel_nodes(nu, q, x, normalization)
    comp = np.exp(nu_rule * x * x)
    integrand = qa.qmul(qa.embed_complex_arr(kvals, unit),
                        phi.eval_array(x)) * comp[:, None]
    sums = [float(np.sum(rule.weights * integrand[:, c])) for c in range(4)]
    return Quaternion(*sums)


def rbf_sb_kernel(gamma: float, q: Quaternion, x: float,
                  normalization: str = "unitary") -> Quaternion:
    """RBF Segal-Bargmann kernel c exp(-(x - sqrt2 q)^2 / gamma^2).

    Equals exp(-q^2/gamma^2) times the Fock-side kernel at nu = 2/gamma^2;
    c is (2/(pi gamma^2))^{1/4} under ``unitary``, exponent 3/4 under
    ``literal``.
    """
    positive_finite("gamma", gamma)
    _check_normalization(normalization)
    power = 0.25 if normalization == "unitary" else 0.75
    pref = (2.0 / (math.pi * gamma * gamma)) ** power
    sp = slice_decompose(q)
    zq = complex(sp.x, sp.y)
    u = x - math.sqrt(2.0) * zq
    return embed_in_slice(pref * cmath.exp(-(u * u) / (gamma * gamma)), sp.unit)


def rbf_sb_image_series(gamma: float, phi: HermiteCoeffFunction,
                        normalization: str = "unitary") -> GaussSeries:
    """Exact RBF-side image; psi_n maps to e_n under ``unitary``."""
    return GaussSeries(gamma, sb_image_series(nu_from_gamma(gamma), phi,
                                              normalization))


def rbf_sb_transform(gamma: float, phi, q: Quaternion,
                     normalization: str = "unitary", method: str = "auto",
                     quad_order: int = DEFAULT_QUAD_ORDER) -> Quaternion:
    """RBF Segal-Bargmann transform: strip-envelope inverse of the Fock one.

    Computed as exp(-q^2/gamma^2) * (Fock transform at nu = 2/gamma^2),
    the operator factorization through the multiplication isometry.
    """
    nu = nu_from_gamma(gamma)
    value = sb_transform(nu, phi, q, normalization, method, quad_order)
    return intrinsic_exp_sq(gamma, q, -1) * value


# ---------------------------------------------------------------------------
# d-dimensional transform (complex variables)

def rbf_sb_kernel_d(gamma: float, z: Sequence[complex],
                    x: Sequence[float]) -> complex:
    """(2/(pi gamma^2))^{d/4} exp(-(sqrt2 z - x)^2 / gamma^2) on C^d x R^d."""
    positive_finite("gamma", gamma)
    z = np.asarray(z, dtype=complex)
    x = np.asarray(x, dtype=float)
    if z.shape != x.shape:
        raise ValueError("dimension mismatch between z and x")
    d = z.size
    pref = (2.0 / (math.pi * gamma * gamma)) ** (d / 4.0)
    u = math.sqrt(2.0) * z - x
    return pref * complex(cmath.exp(-complex(np.sum(u * u)) / (gamma * gamma)))


def rbf_sb_image_series_d(gamma: float,
                          phi: HermiteCoeffFunctionD) -> GaussCSeries:
    """Exact image on C^d: psi_n maps to the multi-index basis e_n."""
    nu = nu_from_gamma(gamma)
    if phi.nu != nu:
        raise ValueError("coefficient basis scale must match 2/gamma^2")
    terms = []
    for idx, c in phi.terms:
        scale = math.exp(0.5 * (multi_order(idx) * math.log(nu)
                                - math.log(multi_factorial(idx))))
        terms.append((idx, c * scale))
    return GaussCSeries(gamma, CPowerSeries(phi.dim, tuple(terms)))


def rbf_sb_transform_d(gamma: float, dim: int, phi,
                       z: Sequence[complex], method: str = "auto",
                       quad_order: int = DEFAULT_QUAD_ORDER) -> complex:
    """d-dimensional RBF Segal-Bargmann transform evaluated at z in C^d.

    Kernel and Hermite terms factor over coordinates; the quadrature path
    integrates psi_n(x) exp(-(sqrt2 z_l - x)^2/gamma^2) per axis.
    """
    nu = nu_from_gamma(gamma)
    if method not in ("auto", "coeffs", "quadrature"):
        raise ValueError("method must be auto, coeffs, or quadrature")
    z = np.asarray(z, dtype=complex)
    if z.size != dim:
        raise ValueError("evaluation point has the wrong dimension")

    exact_ok = isinstance(phi, HermiteCoeffFunctionD) and phi.nu == nu
    if method == "coeffs" or (method == "auto" and exact_ok):
        if not exact_ok:
            raise ValueError("exact path needs multi-index Hermite "
                             "coefficients with scale 2/gamma^2")
        return rbf_sb_image_series_d(gamma, phi).eval(tuple(z))

    if not isinstance(phi, HermiteCoeffFunctionD):
        raise TypeError("quadrature path needs HermiteCoeffFunctionD")
    rule = gauss_hermite(quad_order, nu)
    x = rule.nodes
    n_max = max((max(idx) for idx, _ in phi.terms), default=0)
    psis = hermite_psi_all(phi.nu, n_max, x) * np.exp(nu * x * x)
    tables = [psis * np.exp(-(math.sqrt(2.0) * zl - x) ** 2 / (gamma * gamma))
              for zl in z.ravel()]
    pref = (2.0 / (math.pi * gamma * gamma)) ** (dim / 4.0)
    return pref * integrate_rd(rule.weights, tables, phi.terms)
