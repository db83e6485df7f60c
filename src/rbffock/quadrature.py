"""Gauss-Hermite quadrature and its tensorizations.

Every integral in this package runs through the rules built here.  The
convention is strict: the Gaussian weight exp(-nu*x^2) lives in the rule's
nodes and weights, never in the integrand.  Integrands are the remaining
smooth factors, so polynomial integrands of degree <= 2M-1 per variable are
integrated exactly and nothing is ever double-damped.

Integrands on R^d and C^d are sums of products of one-coordinate factors,
so ``integrate_rd`` sums each axis once instead of the tensor grid.

Sums are accumulated in a fixed node order with block-compensated
reduction (pairwise numpy partial sums combined by math.fsum), which makes
every reported integral bit-reproducible for a given configuration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import positive_finite

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


def compensated_sum(values: np.ndarray) -> float:
    """Deterministic compensated reduction of a 1-D float array."""
    values = np.ascontiguousarray(values, dtype=float).ravel()
    if values.size <= _BLOCK:
        return float(values.sum())
    parts = [float(values[i:i + _BLOCK].sum()) for i in range(0, values.size, _BLOCK)]
    return math.fsum(parts)


def axis_moments(weights: np.ndarray, table) -> np.ndarray:
    """sum_i weights[i] * table[k, i] for each row k, by compensated_sum."""
    return np.array([complex(compensated_sum(weights * row.real),
                             compensated_sum(weights * row.imag))
                     for row in np.asarray(table, dtype=complex)])


def separable_sum(moments: Sequence[np.ndarray], terms) -> complex:
    """sum_t c_t prod_l moments[l][k_{t,l}] over terms (k_t, c_t), by fsum."""
    index = np.array([k for k, _ in terms], dtype=int).reshape(
        len(terms), len(moments))
    values = np.array([c for _, c in terms], dtype=complex)
    for axis, m in enumerate(moments):
        values *= m[index[:, axis]]
    return complex(math.fsum(values.real), math.fsum(values.imag))


def integrate_rd(weights: np.ndarray, tables: Sequence, terms) -> complex:
    """Tensor-product quadrature of sum_t c_t prod_l F_l[k_{t,l}](x_l).

    ``weights`` belong to one axis' nodes (M for a real axis, M^2 for a
    complex coordinate's grid), ``tables[l][k]`` holds F_l[k] at them
    without the weight, and ``terms`` are the pairs (k_t, c_t).  Equals the
    sum over the full tensor grid, in O(d K nodes + terms) work.
    """
    return separable_sum([axis_moments(weights, t) for t in tables], terms)
