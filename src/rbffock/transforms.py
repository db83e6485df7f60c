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
through the action on the basis.  Quadrature is kept as the independent
route, one for both settings: the Gaussians of the kernel and of psi_n live
in the rule, at (nu + phi.nu)/2, and the integrand is entire in x
(``_sb_rule``, ``_sb_exponential``); an RBF transform is the envelope
exp(-z^2/gamma^2) times the Fock-side one.  The transforms take a whole
grid of points and build what does not depend on the point once per call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quatarray as qa
from ._checks import (finite_points, finite_values, nu_from_gamma, positive_finite,
                      whole_number)
from .bases import hermite_psi_all
from .hypercomplex import (Quaternion, embed_in_slice, envelope_exponent,
                           slice_decompose)
from .kernels import NORMALIZATIONS
from .quadrature import (DEFAULT_QUAD_ORDER, _orthonormal_hermite,
                         exact_order, gauss_hermite, integrate_rd)
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     axis_degree, basis_coeff, multi_index_terms)

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
        # coerced as a series' coefficients; no coefficients is the zero function
        object.__setattr__(self, "coeffs", QPowerSeries(self.coeffs).coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def norm_sq(self) -> float:
        return math.fsum(c.norm_sq() for c in self.coeffs)


def hermite_basis_l2(nu: float, n: int) -> HermiteCoeffFunction:
    """The basis function psi_n itself, as a coefficient vector."""
    n = whole_number("n", n)
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
        object.__setattr__(self, "dim", whole_number("dim", self.dim, 1))
        object.__setattr__(self, "terms", multi_index_terms(self.terms, self.dim))

    def norm_sq(self) -> float:
        return math.fsum(abs(c) ** 2 for _, c in self.terms)

    def eval_points(self, xpts: np.ndarray) -> np.ndarray:
        """Values at (npoints, dim) real points, complex."""
        xpts = np.asarray(xpts, dtype=float)
        n_max = axis_degree(self.terms)
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

# points per block of the transform routes' complex parts, so that the
# quadrature route's kernel matrix does not grow with the grid
_BLOCK_POINTS = 128


def _sb_prefactor(nu: float, normalization: str, dim: int = 1) -> float:
    """(nu/pi)^{d/4} under ``unitary``, (nu/pi)^{3d/4} under ``literal``."""
    _check_normalization(normalization)
    power = 0.25 if normalization == "unitary" else 0.75
    return (nu / math.pi) ** (power * dim)


def _exact(method: str, phi_nu: float, nu: float) -> bool:
    """Whether a transform at scale nu of Hermite coefficients of scale
    phi_nu takes the exact route: under ``method="auto"``, if they match."""
    if method not in ("auto", "quadrature"):
        raise ValueError("method must be auto or quadrature")
    return method == "auto" and phi_nu == nu


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
    zq, unit = slice_decompose(q)
    pref = _sb_prefactor(nu, normalization)
    val = finite_values("the Segal-Bargmann kernel value", lambda: pref * cmath.exp(
        -0.5 * nu * (zq * zq + x * x) + nu * math.sqrt(2.0) * zq * x), [q, x])
    return embed_in_slice(val, unit)


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


def _sb_rule(nu: float, phi_nu: float, n_max: int, quad_order: int):
    """The rule at (nu + phi_nu)/2 and the rows (phi_nu/pi)^{1/4}
    h_n(sqrt(phi_nu) x), n <= n_max, at its nodes: psi_n(x; phi_nu) without
    its Gaussian, which the rule holds with the kernel's."""
    exact_order(n_max, quad_order, "Hermite degree")
    rule = gauss_hermite(quad_order, 0.5 * (nu + phi_nu))
    return rule, _orthonormal_hermite(math.sqrt(phi_nu) * rule.nodes, n_max,
                                      (phi_nu / math.pi) ** 0.25)


def _sb_exponential(nu: float, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(nu (sqrt2 z x - z^2/2)) at points z and nodes x, shape
    z.shape + x.shape: the Segal-Bargmann kernel without its Gaussian
    exp(-nu x^2/2) and its prefactor."""
    return np.exp(nu * (np.multiply.outer(math.sqrt(2.0) * z, x)
                        - 0.5 * (z * z)[..., None]))


def sb_transform(nu: float, phi, q, normalization: str = "unitary",
                 method: str = "auto", quad_order: int = DEFAULT_QUAD_ORDER):
    """Apply the Segal-Bargmann transform to phi and evaluate it at q.

    q is a Quaternion, giving a Quaternion, or points of shape (..., 4),
    giving values of that shape.  ``method="auto"`` uses the exact action
    on Hermite coefficients of the matching scale and integrates otherwise;
    ``method="quadrature"`` always integrates.  Both routes run on each
    point's slice, z = x + iy for q = x + I y: per block of points the
    complex parts P of the four components are the ``_quatarray.horner``
    of the image series' coefficients at z, or E @ F with the complex
    E = ``_sb_exponential`` and the rule's F = w rows^T C, built once per
    call; Re P + I Im P join through one Hamilton product with the units.
    A value that is not finite raises OverflowError naming its point.
    """
    if not isinstance(phi, HermiteCoeffFunction):
        raise TypeError("sb_transform needs a HermiteCoeffFunction")
    positive_finite("nu", nu)
    _check_normalization(normalization)
    points = _quaternion_points(q)
    exact = _exact(method, phi.nu, nu)
    if exact:
        coeffs = np.array([c.to_list() for c in
                           sb_image_series(nu, phi, normalization).coeffs])
    else:
        rule, rows = _sb_rule(nu, phi.nu, phi.degree, quad_order)
        f = (_sb_prefactor(nu, normalization) * rule.weights)[:, None] * (
            rows.T @ np.array([c.to_list() for c in phi.coeffs]))
    z, units = qa.slice_decompose_arr(points.reshape(-1, 4))

    def values():
        p = np.empty((z.size, 4), dtype=complex)
        for start in range(0, z.size, _BLOCK_POINTS):
            zb = z[start:start + _BLOCK_POINTS]
            p[start:start + zb.size] = (qa.horner(coeffs, zb).T if exact else
                                        _sb_exponential(nu, zb, rule.nodes) @ f)
        unit_q = np.concatenate([np.zeros((z.size, 1)), units], axis=1)
        return (p.real + qa.qmul(unit_q, p.imag)).reshape(points.shape)
    return _like(q, finite_values("the transform value", values, points))


def rbf_sb_kernel(gamma: float, q: Quaternion, x: float,
                  normalization: str = "unitary") -> Quaternion:
    """RBF Segal-Bargmann kernel c exp(-(x - sqrt2 q)^2 / gamma^2).

    Equals exp(-q^2/gamma^2) times the Fock-side kernel at nu = 2/gamma^2;
    c is (2/(pi gamma^2))^{1/4} under ``unitary``, exponent 3/4 under
    ``literal``.
    """
    positive_finite("gamma", gamma)
    finite_points([x])
    zq, unit = slice_decompose(q)
    u = x - math.sqrt(2.0) * zq
    # gamma^2 may underflow to zero: the division is part of the check
    val = finite_values("the RBF Segal-Bargmann kernel value", lambda: _sb_prefactor(
        2.0 / (gamma * gamma), normalization) * cmath.exp(
        -(u * u) / (gamma * gamma)), [q, x])
    return embed_in_slice(val, unit)


def rbf_sb_image_series(gamma: float, phi: HermiteCoeffFunction,
                        normalization: str = "unitary") -> GaussSeries:
    """Exact RBF-side image; psi_n maps to e_n under ``unitary``."""
    return GaussSeries(gamma, sb_image_series(nu_from_gamma(gamma), phi,
                                              normalization))


def _envelope(gamma: float, q: np.ndarray) -> np.ndarray:
    """exp(-q^2/gamma^2) at points q (..., 4), on the slice of each point."""
    z, units = qa.slice_decompose_arr(q)
    value = np.exp(envelope_exponent(gamma, z))
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
        pref = _sb_prefactor(2.0 / (gamma * gamma), "unitary", z.size)
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
    point, a sequence of dim complex numbers, gives a complex number.  By
    both routes the value is the envelope exp(-z^2/gamma^2) times the
    Fock-side transform at nu = 2/gamma^2: the image series, or, per axis
    and block of points, the rows of ``_sb_rule`` times ``_sb_exponential``
    on the rule at (phi.nu + nu)/2, built once per call.  A value that is
    not finite raises OverflowError naming its point.
    """
    if not isinstance(phi, HermiteCoeffFunctionD):
        raise TypeError("rbf_sb_transform_d needs a HermiteCoeffFunctionD")
    nu = nu_from_gamma(gamma)
    if phi.dim != dim:
        raise ValueError(f"phi is a function on R^{phi.dim}, not on R^{dim}")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape[-1] != dim:
        raise ValueError("evaluation point has the wrong dimension")
    finite_points(z)
    rows = z.reshape(-1, dim)

    if _exact(method, phi.nu, nu):
        fock = rbf_sb_image_series_d(gamma, phi).series.eval_points(rows)
    else:
        rule, table = _sb_rule(nu, phi.nu, axis_degree(phi.terms), quad_order)
        pref = _sb_prefactor(nu, "unitary", dim)

        def at(block):
            # one (points, K, M) table per axis, refused naming its point
            tables = [finite_values("the transform value", lambda: table
                                    * _sb_exponential(nu, zl, rule.nodes)[:, None],
                                    block) for zl in block.T]
            return finite_values("the transform value", lambda: pref * integrate_rd(
                rule.weights, tables, phi.terms), block)

        fock = np.empty(len(rows), dtype=complex)
        for start in range(0, len(rows), _BLOCK_POINTS):
            fock[start:start + _BLOCK_POINTS] = at(rows[start:start + _BLOCK_POINTS])
    envelope = GaussCSeries(gamma, CPowerSeries(dim, ())).envelope
    values = finite_values("the transform value",
                           lambda: envelope(rows) * fock, rows)
    values = values.reshape(z.shape[:-1])
    return complex(values) if values.ndim == 0 else values
