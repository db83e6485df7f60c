"""Inner products, norms, and reproducing-property evaluation for the slice
Fock space, the quaternionic RBF space, and their C^d counterparts.

The RBF weight exp((q - conj(q))^2 / gamma^2) = exp(-4y^2/gamma^2) decays
only along the imaginary axis, so direct two-dimensional quadrature of RBF
integrals is ill-posed for generic integrands.  All RBF-space integrals are
therefore routed through the multiplication isometry onto the Fock side
(strip the Gaussian envelope, integrate against the full Gaussian weight
exp(-nu|q|^2) with nu = 2/gamma^2), where Gauss-Hermite rules are exact.
That forces a representation discipline: RBF-space elements enter as
``GaussSeries`` / ``GaussCSeries`` (envelope times series), Fock-space
elements as ``QPowerSeries`` / ``CPowerSeries``, and anything else is
refused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _quatarray as qa
from ._checks import finite_points, finite_values, nu_from_gamma, positive_finite
from .hypercomplex import (I_DEFAULT, ImaginaryUnit, Quaternion, SlicePoint,
                           intrinsic_exp_sq)
from .quadrature import (DEFAULT_QUAD_ORDER, QuadratureRule, axis_moments,
                         exact_order, gauss_hermite, integrate_rd,
                         separable_sum)
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     beta_coeffs)

__all__ = [
    "FockSliceSpace",
    "RBFSliceSpace",
    "FockCSpace",
    "RBFCSpace",
    "m_operator",
    "pointwise_bound_check",
    "slice_independence_check",
    "BoundCheckReport",
    "SliceIndependenceReport",
]

_M_OUT_DEGREE = 48

# [d, c] = conj(e_d) e_c for e = 1, i, j, k, taken from the Hamilton product
_CONJ_TIMES = qa.qmul(qa.qconj(np.eye(4))[:, None], np.eye(4)[None, :])


def _slice_series(f) -> QPowerSeries:
    if not isinstance(f, QPowerSeries):
        raise TypeError("slice Fock-space elements must be QPowerSeries; "
                        "Gaussian-enveloped series belong to RBFSliceSpace")
    return f


class _Grid(NamedTuple):
    """The tensor Gauss-Hermite rule of one order on a plane (a slice, or
    one complex coordinate): the (M, M) meshes of x and y (indexing "ij"),
    and the M^2 weights w_a w_b and their roots sqrt(w_a) sqrt(w_b)."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    root_w: np.ndarray


@functools.lru_cache(maxsize=32)
def _grid(order: int, nu: float) -> _Grid:
    """Built once per (order, nu) and shared, so its arrays are read-only."""
    rule = gauss_hermite(order, nu)
    x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    w, root_w = rule.weights, np.sqrt(rule.weights)
    grid = _Grid(x, y, (w[:, None] * w[None, :]).ravel(),
                 (root_w[:, None] * root_w[None, :]).ravel())
    for array in grid:
        array.setflags(write=False)
    return grid


class FockSliceSpace:
    """Slice Fock space: weight exp(-nu|q|^2) on C_unit, prefactor nu/pi.

    Every integral is ``_pair_integral``, one weighted sum over a grid.
    The integrand of an inner product, norm or Gram is a polynomial of
    degree D times the weight, integrated exactly on the smallest grid,
    of order D // 2 + 1.  ``quad_order`` caps that order (a larger D is
    refused) and is the order of ``reproduce``, whose kernel section is
    not a polynomial.
    """

    def __init__(self, nu: float, unit: ImaginaryUnit = I_DEFAULT,
                 quad_order: int = DEFAULT_QUAD_ORDER):
        positive_finite("nu", nu)
        self.nu = nu
        self.unit = unit
        self.quad_order = quad_order
        self.rule: QuadratureRule = gauss_hermite(quad_order, nu)
        self.grid = _grid(quad_order, nu)

    # -- evaluation ---------------------------------------------------

    def _grid_values(self, f, grid: _Grid) -> np.ndarray:
        f = _slice_series(f)
        exact_order(f.degree, self.quad_order, "series degree")
        return f.eval_slice_grid(grid.x, grid.y, self.unit)

    @staticmethod
    def _stack(grid: _Grid, values: list) -> np.ndarray:
        """n value grids (M, M, 4) as one stack (n, 4, M^2) scaled by
        sqrt(weight)."""
        out = np.empty((len(values), 4, grid.root_w.size))
        for row, grid_values in zip(out, values):
            row[...] = grid_values.reshape(-1, 4).T
        out *= grid.root_w
        return out

    def _series_stack(self, grid: _Grid, functions) -> np.ndarray:
        return self._stack(grid, [self._grid_values(f, grid) for f in functions])

    def _pair_integral(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """All <f_a, g_b> = (nu/pi) sum_i w_i conj(g_b) f_a of two stacks,
        shape (len(F), len(G), 4), by one real matrix product; given one
        stack twice, the result is exactly quaternion-Hermitian."""
        products = F.reshape(-1, F.shape[-1]) @ G.reshape(-1, G.shape[-1]).T
        products = products.reshape(len(F), 4, len(G), 4)
        out = np.einsum("acbd,dce->abe", products, _CONJ_TIMES)
        out *= self.nu / math.pi
        if F is G:
            out = 0.5 * (out + qa.qconj(out.swapaxes(0, 1)))
        return out

    # -- public api ---------------------------------------------------

    def inner_product(self, f, g) -> Quaternion:
        """<f, g> = (nu/pi) * integral conj(g) f exp(-nu|q|^2)."""
        f, g = _slice_series(f), _slice_series(g)
        grid = _grid(exact_order(f.degree + g.degree, self.quad_order), self.nu)
        F = self._series_stack(grid, [f])
        G = F if g is f else self._series_stack(grid, [g])
        return Quaternion(*self._pair_integral(F, G)[0, 0])

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).w

    def gram(self, functions: Sequence) -> np.ndarray:
        """All pairwise inner products, shape (n, n, 4), G[a,b] = <f_a, f_b>,
        on the grid of the highest degree + 1."""
        functions = [_slice_series(f) for f in functions]
        degree = max((f.degree for f in functions), default=0)
        grid = _grid(exact_order(2 * degree, self.quad_order), self.nu)
        F = self._series_stack(grid, functions)
        return self._pair_integral(F, F)

    def reproduce(self, f, w: Quaternion) -> Quaternion:
        """Evaluate <f, K_w> by quadrature on the ``quad_order`` grid; equals
        f(w) for f in the space."""
        grid = self.grid
        kvals = qa.star_exp_grid(self.nu, grid.x, grid.y, self.unit, w)
        F, K = self._series_stack(grid, [f]), self._stack(grid, [kvals])
        return Quaternion(*self._pair_integral(F, K)[0, 0])


class RBFSliceSpace:
    """Quaternionic slice RBF space, nu = 2/gamma^2, prefactor 2/(pi gamma^2).

    Elements are Gaussian-enveloped series; every integral is computed on
    the Fock side after stripping the envelope (exact, no truncation, on
    the smallest exact grid).  ``inner_product_direct`` instead evaluates
    elements pointwise on the ``quad_order`` grid and re-weights
    explicitly, providing an independent route for isometry checks.
    """

    def __init__(self, gamma: float, unit: ImaginaryUnit = I_DEFAULT,
                 quad_order: int = DEFAULT_QUAD_ORDER):
        self.nu = nu_from_gamma(gamma)
        self.gamma = gamma
        self.unit = unit
        self.quad_order = quad_order
        self._fock = FockSliceSpace(self.nu, unit, quad_order)

    def _require_member(self, f) -> GaussSeries:
        if not isinstance(f, GaussSeries):
            raise TypeError(
                "RBF-space elements must be GaussSeries (Gaussian envelope "
                "times series); other forms have no Gaussian-compatible "
                "weight after the isometry transform")
        if f.gamma != self.gamma:
            raise ValueError(f"element envelope gamma={f.gamma} does not match "
                             f"space gamma={self.gamma}")
        return f

    def inner_product(self, f, g) -> Quaternion:
        return self._fock.inner_product(self._require_member(f).series,
                                        self._require_member(g).series)

    def inner_product_direct(self, f, g) -> Quaternion:
        """Direct-weight route: pointwise values times exp(-4y^2/gamma^2),
        with the rule's Gaussian compensated explicitly."""
        f, g = self._require_member(f), self._require_member(g)
        fock, grid = self._fock, self._fock.grid
        x, y = grid.x, grid.y
        vals_f = f.eval_slice_grid(x, y, self.unit)
        vals_g = vals_f if g is f else g.eval_slice_grid(x, y, self.unit)
        comp = np.exp(-4.0 * y * y / (self.gamma * self.gamma)
                      + self.nu * (x ** 2 + y ** 2))
        # 2/(pi gamma^2) = nu/pi, so the Fock rule's sum applies as it is
        F = fock._stack(grid, [vals_f * comp[..., None]])
        G = fock._stack(grid, [vals_g])
        return Quaternion(*fock._pair_integral(F, G)[0, 0])

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).w

    def gram(self, functions: Sequence) -> np.ndarray:
        return self._fock.gram([self._require_member(f).series for f in functions])

    def reproduce(self, f, w: Quaternion) -> Quaternion:
        """<f, K_w> by Fock-side quadrature; equals f(w) for members."""
        f = self._require_member(f)
        # the stripped kernel section star_exp(q, w) exp(-conj(w)^2/g^2) has
        # a constant right factor; it leaves the integral as its conjugate
        # exp(-w^2/g^2), on the left since the envelope is intrinsic
        env = intrinsic_exp_sq(self.gamma, w)
        value = self._fock.reproduce(f.series, w)
        return finite_values("the reproduced value", lambda: env * value, w,
                             numpy=False)


def _cd_series(f, dim: int) -> CPowerSeries:
    if not isinstance(f, CPowerSeries):
        raise TypeError("C^d Fock-space elements must be CPowerSeries")
    if f.dim != dim:
        raise ValueError(f"series on C^{f.dim} in a space on C^{dim}")
    return f


def _powers(z: np.ndarray, degree: int) -> np.ndarray:
    """Rows z^n, n <= degree, at the points z."""
    return np.vander(z, degree + 1, increasing=True).T


@functools.lru_cache(maxsize=64)
def _moment_table(alpha: float, order: int, degree: int) -> np.ndarray:
    """T[n, m] = sum W z^n conj(z)^m, n, m <= degree, on the order-``order``
    grid; shared by every space, so read-only."""
    grid = _grid(order, alpha)
    p = _powers((grid.x + 1j * grid.y).ravel(), degree)
    table = np.array([axis_moments(grid.w, p[n] * np.conj(p))
                      for n in range(degree + 1)])
    table.setflags(write=False)
    return table


class FockCSpace:
    """Fock space on C^d: weight exp(-alpha|z|^2), prefactor (alpha/pi)^d.

    Weight and integrands factor over coordinates: integrals run on one
    coordinate's M x M grid, inner products on T[n, m] = sum W z^n conj(z)^m.
    A table of degree D is exact on the grid of order D + 1, and uses it up
    to ``quad_order``, which bounds the degree of an inner product (a
    higher one is refused) and is the order of ``reproduce``.
    """

    def __init__(self, alpha: float, dim: int, quad_order: int | None = None):
        positive_finite("alpha", alpha)
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.alpha = alpha
        self.dim = dim
        self.quad_order = (quad_order if quad_order is not None
                           else DEFAULT_QUAD_ORDER if dim == 1 else 32)
        self.rule = gauss_hermite(self.quad_order, alpha)

    def _table(self, degree: int, pair_degree: int) -> np.ndarray:
        """The moment table of ``degree`` for an integrand of
        ``pair_degree``, which the rule of ``quad_order`` must integrate."""
        exact_order(pair_degree, self.quad_order)
        return _moment_table(self.alpha, min(self.quad_order, degree + 1), degree)

    def _pair_value(self, table: np.ndarray, f, g) -> complex:
        """sum over term pairs of c_f conj(c_g) prod_l T[n_l, m_l]."""
        size = table.shape[0]
        pairs = [(tuple(n * size + m for n, m in zip(kf, kg)),
                  cf * cg.conjugate())
                 for kf, cf in f.terms for kg, cg in g.terms]
        value = separable_sum([table.ravel()] * self.dim, pairs)
        return (self.alpha / math.pi) ** self.dim * value

    def inner_product(self, f, g) -> complex:
        """<f, g> on the table of the higher degree of f and g."""
        f, g = _cd_series(f, self.dim), _cd_series(g, self.dim)
        df, dg = f.max_axis_degree, g.max_axis_degree
        return self._pair_value(self._table(max(df, dg), df + dg), f, g)

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).real

    def gram(self, functions: Sequence) -> np.ndarray:
        """G[a, b] = <f_a, f_b> on the table of the highest degree, Hermitian
        by construction."""
        functions = [_cd_series(f, self.dim) for f in functions]
        degree = max((f.max_axis_degree for f in functions), default=0)
        table = self._table(degree, 2 * degree)
        out = np.zeros((len(functions),) * 2, dtype=complex)
        for a, b in zip(*np.triu_indices(len(functions))):
            ip = self._pair_value(table, functions[a], functions[b])
            out[b, a], out[a, b] = np.conj(ip), ip
        return out

    def reproduce(self, f, w: Sequence[complex]) -> complex:
        """<f, K_w> on the ``quad_order`` grid: per coordinate, the table
        z^n exp(alpha conj(z) w_l)."""
        f = _cd_series(f, self.dim)
        w = np.asarray(w, dtype=complex)
        if w.shape != (self.dim,):
            raise ValueError("evaluation point has the wrong dimension")
        finite_points(w)
        grid = _grid(self.quad_order, self.alpha)
        z = (grid.x + 1j * grid.y).ravel()
        powers = _powers(z, f.max_axis_degree)
        return finite_values("the reproduced value", lambda: (
            self.alpha / math.pi) ** self.dim * integrate_rd(grid.w, [
                powers * np.exp(self.alpha * np.conj(z) * wl) for wl in w],
                f.terms), w)


class RBFCSpace:
    """Gaussian RBF space on C^d, routed through the Fock side (nu = 2/g^2)."""

    def __init__(self, gamma: float, dim: int, quad_order: int | None = None):
        self.nu = nu_from_gamma(gamma)
        self.gamma = gamma
        self.dim = dim
        self._fock = FockCSpace(self.nu, dim, quad_order)
        self.quad_order = self._fock.quad_order

    def _require_member(self, f) -> GaussCSeries:
        if not isinstance(f, GaussCSeries):
            raise TypeError("RBF-space elements must be GaussCSeries "
                            "(Gaussian envelope times series)")
        if f.gamma != self.gamma or f.dim != self.dim:
            raise ValueError("element envelope does not match the space")
        return f

    def inner_product(self, f, g) -> complex:
        return self._fock.inner_product(self._require_member(f).series,
                                        self._require_member(g).series)

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).real

    def gram(self, functions: Sequence) -> np.ndarray:
        return self._fock.gram([self._require_member(f).series
                                for f in functions])

    def reproduce(self, f, w: Sequence[complex]) -> complex:
        # the Fock side checks w before the envelope is formed from it
        f = self._require_member(f)
        value = self._fock.reproduce(f.series, w)
        w = np.asarray(w, dtype=complex)
        return finite_values("the reproduced value", lambda: complex(
            f.envelope(w[None])[0]) * value, w)


# ---------------------------------------------------------------------------
# multiplication operator and derived checks

def m_operator(gamma: float, direction: int, f, out_degree: int | None = None):
    """Multiplication by exp(+q^2/gamma^2) (direction +1) or its inverse.

    On a Taylor series the coefficients transform through the triangular
    map ``beta_coeffs`` (sign-flipped for the inverse), truncated at
    ``out_degree``.  Applying direction +1 to a matching GaussSeries strips
    the envelope exactly.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if isinstance(f, GaussSeries):
        if direction != 1:
            raise ValueError("direction -1 on a Gaussian-enveloped series "
                             "would double the envelope")
        if f.gamma != gamma:
            raise ValueError("envelope gamma does not match the operator")
        return f.series
    if isinstance(f, QPowerSeries):
        k_max = out_degree if out_degree is not None else max(f.degree, _M_OUT_DEGREE)
        return QPowerSeries(beta_coeffs(gamma, f.coeffs, k_max, sign=direction))
    raise TypeError("m_operator acts on QPowerSeries or GaussSeries")


@dataclass(frozen=True)
class BoundCheckReport:
    max_ratio: float
    norm: float
    worst_point: SlicePoint | None


def pointwise_bound_check(gamma: float, f: GaussSeries, points,
                          unit: ImaginaryUnit = I_DEFAULT,
                          quad_order: int = DEFAULT_QUAD_ORDER) -> BoundCheckReport:
    """Check |f(q)| <= exp(2 y^2/gamma^2) ||f|| over the given slice points.

    Returns the max of |f(q)| / bound (NaN if one is); above 1 is a violation.
    """
    space = RBFSliceSpace(gamma, unit, quad_order)
    norm = math.sqrt(space.norm_sq(f))
    worst = None
    max_ratio = -math.inf
    for sp in points:
        q = sp.to_quaternion()
        bound = finite_values("the pointwise bound", lambda: math.exp(
            2.0 * sp.y * sp.y / (gamma * gamma)) * norm, q, numpy=False,
            gamma=gamma)
        ratio = abs(f.eval(q)) / bound
        if ratio > max_ratio or math.isnan(ratio):
            max_ratio, worst = ratio, sp
    return BoundCheckReport(max_ratio=max_ratio, norm=norm, worst_point=worst)


@dataclass(frozen=True)
class SliceIndependenceReport:
    norm_sq_a: float
    norm_sq_b: float
    rel_diff: float


def slice_independence_check(gamma: float, f: GaussSeries,
                             unit_a: ImaginaryUnit, unit_b: ImaginaryUnit,
                             quad_order: int = DEFAULT_QUAD_ORDER) -> SliceIndependenceReport:
    """Compare the RBF norm of f computed on two different slices."""
    na = RBFSliceSpace(gamma, unit_a, quad_order).norm_sq(f)
    nb = RBFSliceSpace(gamma, unit_b, quad_order).norm_sq(f)
    rel = abs(na - nb) / max(abs(na), abs(nb), 1e-300)
    return SliceIndependenceReport(norm_sq_a=na, norm_sq_b=nb, rel_diff=rel)
