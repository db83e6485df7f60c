"""Orthogonal families: weighted Hermite functions and Gaussian RBF bases.

Conventions pinned here (and verified by quadrature in the test suite):

* h_n(x; nu) = nu^{n/2} H_n(sqrt(nu) x), the Rodrigues-type family
  (-1)^n exp(nu x^2) d^n/dx^n exp(-nu x^2).  Its squared norm against the
  weight exp(-nu x^2) dx is 2^n nu^n n! sqrt(pi/nu).
* psi_n(x; nu) = h_n(x; nu) exp(-nu x^2 / 2) / sqrt(2^n nu^n n! sqrt(pi/nu)),
  orthonormal in plain L^2(R, dx).
* e_n(q; gamma) = sqrt(2^n / (gamma^{2n} n!)) q^n exp(-q^2/gamma^2), the
  orthonormal basis of the Gaussian RBF space; in d complex variables the
  multi-index version factorizes coordinatewise.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from ._checks import finite_points, finite_values, positive_finite, whole_number
from .hypercomplex import (Quaternion, embed_in_slice, envelope_exponent,
                           slice_decompose)
from .quadrature import _orthonormal_hermite
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     basis_coeff, multi_index)

__all__ = [
    "hermite_h",
    "hermite_psi",
    "hermite_psi_all",
    "rbf_basis_coeff",
    "rbf_basis_c",
    "rbf_basis_q",
    "rbf_basis_d",
    "rbf_basis_series",
    "rbf_basis_series_d",
]

MAX_HERMITE_ORDER = 64


def _hermite_points(nu: float, n: int, x) -> np.ndarray:
    """x as a float array, once nu, the order n and every x are checked."""
    positive_finite("nu", nu)
    if not 0 <= n <= MAX_HERMITE_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_HERMITE_ORDER}]")
    x = np.asarray(x, dtype=float)
    finite_points(x.reshape(-1, 1))
    return x


def hermite_h(nu: float, n: int, x):
    """Weighted Hermite polynomial nu^{n/2} H_n(sqrt(nu) x).

    Three-term recurrence h_{k+1} = 2 nu x h_k - 2 k nu h_{k-1}; vectorized
    over x, refusing the first x whose value is not finite.
    """
    x = _hermite_points(nu, n, x)

    def recurrence():
        h_prev, h = np.ones_like(x), 2.0 * nu * x
        for k in range(1, n):
            h_prev, h = h, 2.0 * nu * x * h - 2.0 * k * nu * h_prev
        return h if n else h_prev
    h = finite_values("h_n(x)", recurrence, x[..., None], nu=nu, n=n)
    return h if h.ndim else float(h)


def hermite_psi_all(nu: float, n_max: int, x) -> np.ndarray:
    """All normalized weighted Hermite functions psi_0 .. psi_{n_max} at x.

    Returns an array of shape (n_max + 1,) + shape(x).  Uses the one
    normalized recurrence (``quadrature._orthonormal_hermite``) from row 0
    (nu/pi)^{1/4} exp(-nu x^2/2), which keeps every row O(1) in magnitude.
    """
    x = _hermite_points(nu, n_max, x)

    def recurrence():
        u = math.sqrt(nu) * x
        return _orthonormal_hermite(u, n_max, (nu / math.pi) ** 0.25
                                    * np.exp(-u * u / 2.0))
    # axis 0 of the values holds the order, so each point repeats along it
    return finite_values("psi_n(x)", recurrence, lambda: np.broadcast_to(
        x[..., None], (n_max + 1,) + x.shape + (1,)), nu=nu)


def hermite_psi(nu: float, n: int, x):
    """Normalized weighted Hermite function, orthonormal in L^2(R, dx)."""
    vals = hermite_psi_all(nu, n, x)[n]
    return vals if np.ndim(vals) else float(vals)


def rbf_basis_coeff(gamma: float, n) -> float:
    """Normalization sqrt(2^|n| / (gamma^{2|n|} n!)) of e_n for an order n,
    or a multi-index n given as a tuple, from log nu = log 2 - 2 log gamma."""
    positive_finite("gamma", gamma)
    return basis_coeff(math.log(2.0) - 2.0 * math.log(gamma),
                       n if isinstance(n, tuple) else (whole_number("n", n),))


def rbf_basis_c(gamma: float, n: int, z: complex) -> complex:
    """Orthonormal RBF basis element in one complex variable."""
    finite_points([z])
    # Python numbers compute without numpy; only numpy scalars need its switch
    return finite_values(
        "the rbf basis value",
        lambda: rbf_basis_coeff(gamma, n) * z ** n * cmath.exp(
            envelope_exponent(gamma, z)),
        [z], numpy=isinstance(z, np.generic) or isinstance(gamma, np.generic))


def rbf_basis_q(gamma: float, n: int, q: Quaternion) -> Quaternion:
    """Orthonormal RBF basis element at a quaternion argument.

    Intrinsic (real coefficients), so the monomial and the Gaussian
    envelope commute; evaluated by complex arithmetic on the slice of q.
    """
    z, unit = slice_decompose(q)
    return embed_in_slice(rbf_basis_c(gamma, n, z), unit)


def rbf_basis_d(gamma: float, index: Sequence[int], z: Sequence[complex]) -> complex:
    """Multi-index RBF basis element on C^d as the product of 1-D factors."""
    if len(index) != len(z):
        raise ValueError(f"index length {len(index)} != point dimension {len(z)}")
    return finite_values("the rbf basis value", lambda: math.prod(
        (rbf_basis_c(gamma, nl, complex(zl)) for nl, zl in zip(index, z)),
        start=1.0 + 0.0j), z)


def rbf_basis_series(gamma: float, n: int) -> GaussSeries:
    """e_n as a Gaussian-enveloped monomial, the form the spaces consume."""
    return GaussSeries(gamma, QPowerSeries.monomial(n, rbf_basis_coeff(gamma, n)))


def rbf_basis_series_d(gamma: float, index: Sequence[int]) -> GaussCSeries:
    index = multi_index(index, len(index))
    return GaussCSeries(gamma, CPowerSeries(len(index), (
        (index, rbf_basis_coeff(gamma, index)),)))
