"""Gauss-Hermite quadrature and its tensorizations.

Every integral in this package that has no closed form runs through the
rules built here: the grid routes of the spaces (``reproduce``,
``inner_product_direct``), the quadrature transforms and the oracles of
verify.  Fock inner products, norms and Grams need none; the monomials
are orthogonal with norms n!/alpha^n (``spaces._fock_sums``).  The
convention is strict: the Gaussian weight exp(-nu*x^2) lives in the rule's
nodes and weights, never in the integrand.  Integrands are the remaining
smooth factors, so polynomial integrands of degree <= 2M-1 per variable are
integrated exactly and nothing is ever double-damped.

Integrands on R^d and C^d are sums of products of one-coordinate factors,
so ``integrate_rd`` sums each axis once instead of the tensor grid.

Axis moments are summed in fixed node order by block-compensated reduction
(pairwise numpy partial sums combined by math.fsum), which gives the same
bytes run to run and across BLAS thread counts on one machine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import finite_values, positive_finite

__all__ = [
    "DEFAULT_QUAD_ORDER",
    "QuadratureRule",
    "gauss_hermite",
    "axis_moments",
    "separable_sum",
    "integrate_rd",
]

DEFAULT_QUAD_ORDER = 80

_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for integral f(x) exp(-nu x^2) dx over the line."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    nu: float


def _orthonormal_hermite(x: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal (physicists') Hermite polynomial of degree n at x."""
    prev = np.zeros_like(x)
    cur = np.full_like(x, math.pi ** -0.25)
    for k in range(n):
        prev, cur = cur, (x * math.sqrt(2.0 / (k + 1)) * cur
                          - math.sqrt(k / (k + 1)) * prev)
    return cur


@functools.lru_cache(maxsize=64)
def gauss_hermite(order: int, nu: float = 1.0) -> QuadratureRule:
    """Gauss-Hermite rule for the weight exp(-nu*x^2) on the real line.

    Nodes come from the symmetric-tridiagonal (Jacobi matrix) eigenvalue
    problem, polished by one Newton step on the orthonormal Hermite
    recurrence; weights from the derivative values, normalized so they sum
    to sqrt(pi).  Exact for polynomials of degree <= 2*order - 1, then
    rescaled x -> x/sqrt(nu).

    The cap at order 512 keeps the recurrence values inside double range.
    Past order ~350 the outermost weights fall below the smallest positive
    double and underflow to exactly zero; those nodes carry no
    representable mass.  Rules are built once per (order, nu) and shared,
    so their arrays are read-only.
    """
    if not 1 <= order <= 512:
        raise ValueError("order must lie in [1, 512]")
    positive_finite("nu", nu)
    if order == 1:
        nodes = np.zeros(1)
        weights = np.array([math.sqrt(math.pi)])
    else:
        band = np.sqrt(np.arange(1, order) / 2.0)
        jacobi = np.diag(band, 1) + np.diag(band, -1)
        nodes = np.linalg.eigvalsh(jacobi)
        # Newton refinement: phi_n(x) = 0 with phi_n' = sqrt(2n) phi_{n-1}
        value = _orthonormal_hermite(nodes, order)
        slope = math.sqrt(2.0 * order) * _orthonormal_hermite(nodes, order - 1)
        nodes = nodes - value / slope
        # w_i is proportional to 1/phi_{n-1}(x_i)^2; the squares span more
        # than the double exponent range at high orders, so form them in
        # log space relative to the largest weight
        base = _orthonormal_hermite(nodes, order - 1)
        log_w = -2.0 * np.log(np.abs(base))
        weights = np.exp(log_w - log_w.max())
        weights *= math.sqrt(math.pi) / weights.sum()
        # fold to make the +-x symmetry of nodes and weights exact
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
    root = math.sqrt(nu)
    nodes, weights = nodes / root, weights / root
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=order, nu=nu)


def exact_order(degree: int, quad_order: int,
                what: str = "combined integrand degree") -> None:
    """Raise ValueError, naming ``what``, unless the rule of ``quad_order``
    is exact to ``degree`` (an m-point rule is exact to 2m - 1)."""
    if degree > 2 * quad_order - 1:
        raise ValueError(f"{what} {degree} exceeds quadrature exactness "
                         f"{2 * quad_order - 1}; raise quad_order")


def compensated_sum(values: np.ndarray):
    """Deterministic compensated reduction of the last axis.

    Each row is summed on its own: pairwise numpy sums over blocks of 2^16
    entries, combined by math.fsum, so a row gives the same bits alone as
    among others.  A 1-D array gives a float, more axes an array of the
    leading shape.
    """
    values = np.ascontiguousarray(values, dtype=float)
    size = values.shape[-1]
    if size <= _BLOCK:
        sums = values.sum(axis=-1)
    else:
        parts = np.stack([values[..., i:i + _BLOCK].sum(axis=-1)
                          for i in range(0, size, _BLOCK)], axis=-1)
        sums = np.reshape([math.fsum(row) for row in parts.reshape(
            -1, parts.shape[-1])], parts.shape[:-1])
    return float(sums) if values.ndim == 1 else sums


def _complex_of(real, imag) -> np.ndarray:
    """real + i imag with each part as given, as ``complex(a, b)`` gives
    it (``a + 1j*b`` turns a real -0.0 into +0.0, and a finite real part
    into NaN where b is infinite)."""
    out = np.empty(np.shape(real), dtype=complex)
    out.real, out.imag = real, imag
    return out


def axis_moments(weights: np.ndarray, table) -> np.ndarray:
    """sum_i weights[i] * table[..., k, i] for each row k, by
    compensated_sum; leading axes of the table (points) are kept."""
    table = np.asarray(table, dtype=complex)
    return _complex_of(compensated_sum(weights * table.real),
                       compensated_sum(weights * table.imag))


def separable_sum(moments: Sequence[np.ndarray], terms):
    """sum_t c_t prod_l moments[l][..., k_{t,l}] over terms (k_t, c_t), by
    fsum per leading index: a complex for 1-D moments, else an array of
    their leading shape."""
    index = np.array([k for k, _ in terms], dtype=int).reshape(
        len(terms), len(moments))
    values = np.array([c for _, c in terms], dtype=complex)
    for axis, m in enumerate(moments):
        values = values * m[..., index[:, axis]]
    rows = values.reshape(math.prod(values.shape[:-1]), len(terms))
    out = _complex_of([math.fsum(r) for r in rows.real],
                      [math.fsum(r) for r in rows.imag]).reshape(values.shape[:-1])
    return complex(out) if out.ndim == 0 else out


def integrate_rd(weights: np.ndarray, tables: Sequence, terms):
    """Tensor-product quadrature of sum_t c_t prod_l F_l[k_{t,l}](x_l).

    ``weights`` belong to one axis' nodes (M for a real axis, M^2 for a
    complex coordinate's grid), ``tables[l][..., k, :]`` holds F_l[k] at
    them without the weight, and ``terms`` are the pairs (k_t, c_t).
    Leading axes of the tables (points) are kept: tables of shape
    (..., K, M) give values of shape (...), one (K, M) table a complex.
    Equals the sum over the full tensor grid, in O(d K nodes + terms)
    work per point.  Raises OverflowError when a table is not finite.
    """
    return separable_sum([axis_moments(weights, finite_values(
        "a quadrature integrand", lambda: t)) for t in tables], terms)
