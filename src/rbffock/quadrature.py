"""Gauss-Hermite quadrature and its tensorizations.

Every integral in this package that has no closed form runs through the
rules built here: the grid routes of the spaces (``reproduce``,
``inner_product_direct``), the quadrature transforms and the oracles of
verify.  Fock inner products, norms and Grams need none; the monomials
are orthogonal with norms n!/alpha^n (``spaces._fock_sums``).  A
polynomial integrand of degree D runs on its smallest exact rule, of
order D // 2 + 1, with ``quad_order`` as the cap (``spaces.exact_grid``);
one holding a kernel runs on the ``quad_order`` rule.  The convention is
strict: the Gaussian weight exp(-nu*x^2) lives in the rule's nodes and
weights, never in the integrand.  Integrands are the remaining
smooth factors, so polynomial integrands of degree <= 2M-1 per variable are
integrated exactly and nothing is ever double-damped; the transforms'
rule holds the Gaussians of their kernel and of psi_n (``_sb_rule``).
One normalized Hermite recurrence, ``_orthonormal_hermite``, gives their
rows, ``bases.hermite_psi_all`` and the Newton polish of the rules.

Integrands on R^d and C^d are sums of products of one-coordinate factors,
so ``integrate_rd`` sums each axis once instead of the tensor grid.

Axis moments are summed in fixed node order by block-compensated reduction
(pairwise numpy partial sums combined by math.fsum), which gives the same
bytes run to run and across BLAS thread counts on one machine.
"""

from __future__ import annotations

import functools
import math
import operator
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


def _orthonormal_hermite(u: np.ndarray, n_max: int, row0) -> np.ndarray:
    """Rows 0 .. n_max, shape (n_max + 1,) + shape(u), of the normalized
    Hermite recurrence r_{k+1} = sqrt(2/(k+1)) u r_k - sqrt(k/(k+1)) r_{k-1}
    from the given row 0: pi^{-1/4} gives the orthonormal (physicists')
    Hermite polynomials at u."""
    rows = np.zeros((n_max + 1,) + u.shape)
    rows[0] = row0
    for k in range(n_max):  # at k = 0, rows[k - 1] is the last row, still 0
        rows[k + 1] = (u * math.sqrt(2.0 / (k + 1)) * rows[k]
                       - math.sqrt(k / (k + 1)) * rows[k - 1])
    return rows


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
    rule_order(order)
    positive_finite("nu", nu)
    if order == 1:
        nodes = np.zeros(1)
        weights = np.array([math.sqrt(math.pi)])
    else:
        band = np.sqrt(np.arange(1, order) / 2.0)
        jacobi = np.diag(band, 1) + np.diag(band, -1)
        nodes = np.linalg.eigvalsh(jacobi)
        # Newton refinement: phi_n(x) = 0 with phi_n' = sqrt(2n) phi_{n-1}
        rows = _orthonormal_hermite(nodes, order, math.pi ** -0.25)
        nodes = nodes - rows[order] / (math.sqrt(2.0 * order) * rows[order - 1])
        # w_i is proportional to 1/phi_{n-1}(x_i)^2; the squares span more
        # than the double exponent range at high orders, so form them in
        # log space relative to the largest weight
        base = _orthonormal_hermite(nodes, order - 1, math.pi ** -0.25)[-1]
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


def rule_order(order: int) -> int:
    """``order`` if a rule of it can be built: TypeError unless a whole
    number, ValueError unless in [1, 512]."""
    if not 1 <= operator.index(order) <= 512:
        raise ValueError("order must lie in [1, 512]")
    return order


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
