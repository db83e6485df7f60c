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
is kept as an independent route.  The transforms take a whole grid of
points and build what does not depend on the point once per call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quatarray as qa
from ._checks import finite_points, finite_values, nu_from_gamma, positive_finite
from .bases import basis_coeff, hermite_psi_all
from .hypercomplex import (Quaternion, embed_in_slice, envelope_exponent,
                           slice_decompose)
from .kernels import NORMALIZATIONS
from .quadrature import (DEFAULT_QUAD_ORDER, exact_order, gauss_hermite,
                         integrate_rd)
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     multi_index_terms)

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
        object.__setattr__(self, "terms", multi_index_terms(self.terms, self.dim))

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

# points per block of the quadrature route's kernel matrix, so that its
# memory does not grow with the grid
_BLOCK_POINTS = 128


def _sb_prefactor(nu: float, normalization: str) -> float:
    _check_normalization(normalization)
    power = 0.25 if normalization == "unitary" else 0.75
    return (nu / math.pi) ** power


def _quaternion_points(q) -> np.ndarray:
    """A Quaternion, or an array of shape (..., 4), as a float array."""
    points = np.asarray(q.to_list() if isinstance(q, Quaternion) else q,
                        dtype=float)
    if points.ndim == 0 or points.shape[-1] != 4:
        raise ValueError("quaternion points are arrays of shape (..., 4)")
    return points


def _like(q, values: np.ndarray):
    """Values in the form of the argument: a Quaternion for a Quaternion."""
    return Quaternion(*values.tolist()) if isinstance(q, Quaternion) else values


def sb_kernel(nu: float, q: Quaternion, x: float,
              normalization: str = "unitary") -> Quaternion:
    """Segal-Bargmann kernel c(nu) exp(-(nu/2)(q^2+x^2) + nu sqrt2 q x).

    Intrinsic in q, hence computed on the slice of q.  c(nu) is
    (nu/pi)^{1/4} under ``unitary`` and (nu/pi)^{3/4} under ``literal``.
    """
    positive_finite("nu", nu)
    finite_points([x])
    sp = slice_decompose(q)
    zq = complex(sp.x, sp.y)
    pref = _sb_prefactor(nu, normalization)
    val = finite_values("the Segal-Bargmann kernel value", lambda: pref * cmath.exp(
        -0.5 * nu * (zq * zq + x * x) + nu * math.sqrt(2.0) * zq * x), [q, x])
    return embed_in_slice(val, sp.unit)


def sb_image_series(nu: float, phi: HermiteCoeffFunction,
                    normalization: str = "unitary") -> QPowerSeries:
    """Exact Fock-side image: psi_n maps to nu^{n/2} q^n / sqrt(n!)."""
    _check_normalization(normalization)
    if phi.nu != nu:
        raise ValueError("coefficient basis scale must match the transform")
    extra = math.sqrt(nu / math.pi) if normalization == "literal" else 1.0
    log_nu = math.log(nu)
    return QPowerSeries(tuple(c * (extra * basis_coeff(log_nu, (n,)))
                              for n, c in enumerate(phi.coeffs)))


def _sb_quadrature(nu: float, phi: HermiteCoeffFunction, q: np.ndarray,
                   normalization: str, quad_order: int) -> np.ndarray:
    """The transform at points q (..., 4) by quadrature against the kernel.

    On the slice of q the kernel is a complex K, and the weighted node sum
    of (Re K + I Im K) phi is Re K @ F + I (Im K @ F) with
    F = phi(x) w exp(nu_rule x^2): one real matrix product per block of
    points, on the interleaved (Re, Im) columns of K, and one Hamilton
    product for all points.
    """
    nu_rule = 0.5 * (nu + phi.nu)
    rule = gauss_hermite(quad_order, nu_rule)
    x = rule.nodes
    f = phi.eval_array(x) * (rule.weights * np.exp(nu_rule * x * x))[:, None]
    # row 2m gives Re K_m F_m in columns 0-3, row 2m+1 Im K_m F_m in 4-7
    f_pair = np.zeros((x.size, 2, 8))
    f_pair[:, 0, :4] = f_pair[:, 1, 4:] = f
    f_pair = f_pair.reshape(2 * x.size, 8)
    re, im, units = qa.slice_decompose_arr(q.reshape(-1, 4))
    z = re + 1j * im
    pref = _sb_prefactor(nu, normalization)
    parts = np.empty((z.size, 8))
    for start in range(0, z.size, _BLOCK_POINTS):
        zb = z[start:start + _BLOCK_POINTS]
        k = np.add.outer(zb * zb, x * x)
        k *= -0.5 * nu
        k += np.multiply.outer(nu * math.sqrt(2.0) * zb, x)
        np.exp(k, out=k)
        k *= pref
        parts[start:start + zb.size] = k.view(float) @ f_pair
    unit_q = np.concatenate([np.zeros((z.size, 1)), units], axis=1)
    values = parts[:, :4] + qa.qmul(unit_q, parts[:, 4:])
    return values.reshape(q.shape)


def sb_transform(nu: float, phi, q, normalization: str = "unitary",
                 method: str = "auto", quad_order: int = DEFAULT_QUAD_ORDER):
    """Apply the Segal-Bargmann transform to phi and evaluate it at q.

    q is a Quaternion, giving a Quaternion, or points of shape (..., 4),
    giving values of that shape; what does not depend on the point (the
    image series, or the rule and phi at its nodes) is built once per
    call.  ``method="coeffs"`` uses the exact action on Hermite
    coefficients, ``method="quadrature"`` integrates against the
    closed-form kernel, and ``auto`` picks the exact path whenever it
    applies.  A value that is not finite raises OverflowError naming its
    point.
    """
    positive_finite("nu", nu)
    _check_normalization(normalization)
    if method not in ("auto", "coeffs", "quadrature"):
        raise ValueError("method must be auto, coeffs, or quadrature")
    points = _quaternion_points(q)

    exact_ok = isinstance(phi, HermiteCoeffFunction) and phi.nu == nu
    if method == "coeffs" or (method == "auto" and exact_ok):
        if not exact_ok:
            raise ValueError("exact path needs Hermite coefficients with a "
                             "matching scale")
        series = sb_image_series(nu, phi, normalization)
        return _like(q, series.eval_points(points))

    if not isinstance(phi, HermiteCoeffFunction):
        raise TypeError("quadrature path needs HermiteCoeffFunction")
    exact_order(phi.degree, quad_order, "Hermite degree")
    return _like(q, finite_values("the transform value", lambda: _sb_quadrature(
        nu, phi, points, normalization, quad_order), points))


def rbf_sb_kernel(gamma: float, q: Quaternion, x: float,
                  normalization: str = "unitary") -> Quaternion:
    """RBF Segal-Bargmann kernel c exp(-(x - sqrt2 q)^2 / gamma^2).

    Equals exp(-q^2/gamma^2) times the Fock-side kernel at nu = 2/gamma^2;
    c is (2/(pi gamma^2))^{1/4} under ``unitary``, exponent 3/4 under
    ``literal``.
    """
    positive_finite("gamma", gamma)
    _check_normalization(normalization)
    finite_points([x])
    power = 0.25 if normalization == "unitary" else 0.75
    sp = slice_decompose(q)
    u = x - math.sqrt(2.0) * complex(sp.x, sp.y)
    # gamma^2 may underflow to zero: the division is part of the check
    val = finite_values("the RBF Segal-Bargmann kernel value", lambda: (
        2.0 / (math.pi * gamma * gamma)) ** power * cmath.exp(
        -(u * u) / (gamma * gamma)), [q, x])
    return embed_in_slice(val, sp.unit)


def rbf_sb_image_series(gamma: float, phi: HermiteCoeffFunction,
                        normalization: str = "unitary") -> GaussSeries:
    """Exact RBF-side image; psi_n maps to e_n under ``unitary``."""
    return GaussSeries(gamma, sb_image_series(nu_from_gamma(gamma), phi,
                                              normalization))


def _envelope(gamma: float, q: np.ndarray) -> np.ndarray:
    """exp(-q^2/gamma^2) at points q (..., 4), on the slice of each point."""
    x, y, units = qa.slice_decompose_arr(q)
    value = np.exp(envelope_exponent(gamma, x, y))
    return np.concatenate([value.real[..., None],
                           units * value.imag[..., None]], axis=-1)


def rbf_sb_transform(gamma: float, phi, q, normalization: str = "unitary",
                     method: str = "auto",
                     quad_order: int = DEFAULT_QUAD_ORDER):
    """RBF Segal-Bargmann transform: strip-envelope inverse of the Fock one.

    Computed as exp(-q^2/gamma^2) * (Fock transform at nu = 2/gamma^2),
    the operator factorization through the multiplication isometry.  q
    and the values take the forms of ``sb_transform``.
    """
    nu = nu_from_gamma(gamma)
    points = _quaternion_points(q)
    value = sb_transform(nu, phi, points, normalization, method, quad_order)
    return _like(q, finite_values(
        "the transform value",
        lambda: qa.qmul(_envelope(gamma, points), value), points))


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
    finite_points(z)
    finite_points(x)

    def value():
        pref = (2.0 / (math.pi * gamma * gamma)) ** (z.size / 4.0)
        u = math.sqrt(2.0) * z - x
        return pref * complex(cmath.exp(-complex(np.sum(u * u)) / (gamma * gamma)))
    return finite_values("the RBF Segal-Bargmann kernel value", value, [z, x])


def rbf_sb_image_series_d(gamma: float,
                          phi: HermiteCoeffFunctionD) -> GaussCSeries:
    """Exact image on C^d: psi_n maps to the multi-index basis e_n."""
    nu = nu_from_gamma(gamma)
    if phi.nu != nu:
        raise ValueError("coefficient basis scale must match 2/gamma^2")
    log_nu = math.log(nu)
    return GaussCSeries(gamma, CPowerSeries(phi.dim, tuple(
        (idx, c * basis_coeff(log_nu, idx)) for idx, c in phi.terms)))


def rbf_sb_transform_d(gamma: float, dim: int, phi, z, method: str = "auto",
                       quad_order: int = DEFAULT_QUAD_ORDER):
    """d-dimensional RBF Segal-Bargmann transform evaluated at z in C^d.

    z holds points of shape (..., dim) and gives values of shape (...); one
    point, a sequence of dim complex numbers, gives a complex number.  The
    image series, or the rule and the Hermite table at its nodes, is built
    once per call.  Kernel and Hermite terms factor over coordinates; the
    quadrature path integrates psi_n(x) exp(-(sqrt2 z_l - x)^2/gamma^2)
    per axis, per block of points.  A value that is not finite raises
    OverflowError naming its point.
    """
    nu = nu_from_gamma(gamma)
    if method not in ("auto", "coeffs", "quadrature"):
        raise ValueError("method must be auto, coeffs, or quadrature")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape[-1] != dim:
        raise ValueError("evaluation point has the wrong dimension")
    finite_points(z)
    rows = z.reshape(-1, dim)

    exact_ok = isinstance(phi, HermiteCoeffFunctionD) and phi.nu == nu
    if method == "coeffs" or (method == "auto" and exact_ok):
        if not exact_ok:
            raise ValueError("exact path needs multi-index Hermite "
                             "coefficients with scale 2/gamma^2")
        image = rbf_sb_image_series_d(gamma, phi)
        fock = image.series.eval_points(rows)
        values = finite_values("the transform value",
                               lambda: image.envelope(rows) * fock, rows)
    else:
        if not isinstance(phi, HermiteCoeffFunctionD):
            raise TypeError("quadrature path needs HermiteCoeffFunctionD")
        rule = gauss_hermite(quad_order, nu)
        x = rule.nodes
        n_max = max((max(idx) for idx, _ in phi.terms), default=0)
        psis = hermite_psi_all(phi.nu, n_max, x) * np.exp(nu * x * x)
        pref = (2.0 / (math.pi * gamma * gamma)) ** (dim / 4.0)

        def at(block, where):
            # one (points, K, M) table per axis
            return finite_values("the transform value", lambda: pref * integrate_rd(
                rule.weights, [psis * np.exp(-(math.sqrt(2.0) * zl[:, None] - x) ** 2
                                             / (gamma * gamma))[:, None]
                               for zl in block.T], phi.terms), where)

        values = np.empty(len(rows), dtype=complex)
        for start in range(0, len(rows), _BLOCK_POINTS):
            block = rows[start:start + _BLOCK_POINTS]
            try:
                values[start:start + len(block)] = at(block, block)
            except OverflowError:
                # a refusal of the whole block names the block; point by
                # point, it names the first point that overflows
                values[start:start + len(block)] = [
                    at(point[None], point)[0] for point in block]
    values = values.reshape(z.shape[:-1])
    return complex(values) if values.ndim == 0 else values
