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
from .hypercomplex import I_DEFAULT, ImaginaryUnit, Quaternion, SlicePoint
from .quadrature import (DEFAULT_QUAD_ORDER, QuadratureRule, axis_moments,
                         exact_order, gauss_hermite, integrate_rd)
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     beta_coeffs, dimension)

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


def _slice_series(f) -> QPowerSeries:
    if not isinstance(f, QPowerSeries):
        raise TypeError("slice Fock-space elements must be QPowerSeries; "
                        "Gaussian-enveloped series belong to RBFSliceSpace")
    return f


class _Grid(NamedTuple):
    """The tensor Gauss-Hermite rule of one order on a plane (a slice, or
    one complex coordinate): the (M, M) meshes of x and y (indexing "ij")
    and the M^2 weights w_a w_b."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray


@functools.lru_cache(maxsize=32)
def _grid(order: int, nu: float) -> _Grid:
    """Built once per (order, nu) and shared, so its arrays are read-only."""
    rule = gauss_hermite(order, nu)
    x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    grid = _Grid(x, y, (rule.weights[:, None] * rule.weights[None, :]).ravel())
    for array in grid:
        array.setflags(write=False)
    return grid


def _powers(z: np.ndarray, degree: int) -> np.ndarray:
    """Rows z^n, n <= degree, at the points z."""
    return np.vander(z, degree + 1, increasing=True).T


@functools.lru_cache(maxsize=64)
def _moment_table(alpha: float, order: int, degree: int) -> np.ndarray:
    """T[n, m] = sum W z^n conj(z)^m, n, m <= degree, on the order-``order``
    grid, in blocks of rows n of about 2^16 products; shared, so read-only."""
    grid = _grid(order, alpha)
    p = _powers((grid.x + 1j * grid.y).ravel(), degree)
    rows, conj_p = max(1, (1 << 16) // p.size), np.conj(p)
    table = np.concatenate([axis_moments(grid.w, p[n:n + rows, None] * conj_p)
                            for n in range(0, degree + 1, rows)])
    table.setflags(write=False)
    return table


def _fock_sums(alpha: float, quad_order: int, indices: np.ndarray,
               rows: np.ndarray, df: int, dg: int) -> np.ndarray:
    """h = R M R^H, the sums sum W u conj(v) of the rows u, v of the
    coefficients R (n, U) of the monomials of ``indices`` (U, d), with
    M[t, s] = prod_l T[n_{t,l}, n_{s,l}]: times (alpha/pi)^d, the Fock inner
    products.  T is the moment table of degree D = max(df, dg) on the grid
    of order min(D + 1, quad_order), whose rule must be exact to df + dg."""
    exact_order(df + dg, quad_order)
    degree = max(df, dg)
    table = _moment_table(alpha, min(quad_order, degree + 1), degree)
    m = functools.reduce(np.multiply, (table[np.ix_(n, n)] for n in indices.T))
    return rows @ m @ rows.conj().T


def _split_rows(functions, unit: ImaginaryUnit) -> tuple:
    """(indices, rows): the powers 0..D, D the highest degree, and the rows
    (F1_a; F2_a) of the functions' coefficients, split in one call."""
    parts = np.zeros((len(functions), max([0] + [f.degree for f in functions]) + 1, 4))
    for row, f in zip(parts, functions):
        row[:len(f.coeffs)] = [c.to_list() for c in f.coeffs]
    return (np.arange(parts.shape[1])[:, None],
            np.concatenate(qa.split_pair(parts, unit)))


class FockSliceSpace:
    """Slice Fock space: weight exp(-nu|q|^2) on C_unit, prefactor nu/pi.

    On the slice each element is F1 + F2 J, F1 and F2 complex polynomials
    (the splitting lemma), so an inner product combines four complex ones
    (``_join``).  Inner products, norms and Grams read those from the C^1
    moment table (``_fock_sums``); ``quad_order`` bounds their degree (a
    higher one is refused) and is the order of the grid of ``reproduce``.
    """

    def __init__(self, nu: float, unit: ImaginaryUnit = I_DEFAULT,
                 quad_order: int = DEFAULT_QUAD_ORDER):
        positive_finite("nu", nu)
        self.nu = nu
        self.unit = unit
        self.quad_order = quad_order
        self.rule: QuadratureRule = gauss_hermite(quad_order, nu)
        self.grid = _grid(quad_order, nu)

    # -- the two routes -----------------------------------------------

    def _join(self, h: np.ndarray) -> np.ndarray:
        """Quaternion inner products, shape (n, m, 4), from the complex sums
        h = sum W u conj(v) of the rows u = (F1_a; F2_a) against the rows
        v = (G1_b; G2_b): <f, g> = X + Y J with X = <F1, G1> + conj<F2, G2>
        and Y = <F2, G1> - conj<F1, G2>."""
        h = (self.nu / math.pi) * h.reshape(2, len(h) // 2, 2, h.shape[1] // 2)
        (f1g1, f1g2), (f2g1, f2g2) = h.swapaxes(1, 2)
        return qa.join_pair((f1g1 + np.conj(f2g2), f2g1 - np.conj(f1g2)),
                            self.unit)

    def _grid_pair(self, f_values: np.ndarray, g_values: np.ndarray) -> Quaternion:
        """<f, g> of values (M, M, 4) on the ``quad_order`` grid: the real
        products P = sum W f_c g_d, one matrix product, split on both sides
        as h = S P S^H with S = ``split_pair``(eye(4))."""
        f_values, g_values = f_values.reshape(-1, 4), g_values.reshape(-1, 4)
        P = (f_values * self.grid.w[:, None]).T @ g_values
        S = np.array(qa.split_pair(np.eye(4), self.unit))
        return Quaternion(*self._join(S @ P @ S.conj().T)[0, 0])

    # -- public api ---------------------------------------------------

    def inner_product(self, f, g) -> Quaternion:
        """<f, g> = (nu/pi) * integral conj(g) f exp(-nu|q|^2)."""
        f, g = _slice_series(f), _slice_series(g)
        h = _fock_sums(self.nu, self.quad_order, *_split_rows([f, g], self.unit),
                       f.degree, g.degree)
        return Quaternion(*self._join(h[0::2, 1::2])[0, 0])

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).w

    def gram(self, functions: Sequence) -> np.ndarray:
        """All pairwise inner products, shape (n, n, 4), G[a,b] = <f_a, f_b>,
        exactly quaternion-Hermitian."""
        functions = [_slice_series(f) for f in functions]
        degree = max((f.degree for f in functions), default=0)
        h = _fock_sums(self.nu, self.quad_order, *_split_rows(functions, self.unit),
                       degree, degree)
        return self._join(0.5 * (h + h.conj().T))

    def reproduce(self, f, w: Quaternion) -> Quaternion:
        """Evaluate <f, K_w> by quadrature on the ``quad_order`` grid; equals
        f(w) for f in the space."""
        f = _slice_series(f)
        exact_order(f.degree, self.quad_order, "series degree")
        x, y = self.grid.x, self.grid.y
        return self._grid_pair(f.eval_slice_grid(x, y, self.unit),
                               qa.star_exp_grid(self.nu, x, y, self.unit, w))


class _RBFSpace:
    """A Gaussian RBF space: the image of a Fock space at nu = 2/gamma^2
    under multiplication by the envelope exp(-z^2/gamma^2).

    Elements are Gaussian-enveloped series of the class ``member``.  Every
    integral strips the envelope and runs on the Fock side (exact, no
    truncation, on the moment table); ``reproduce`` puts the envelope at
    the point back.
    """

    member: type

    def __init__(self, gamma: float, fock_space: type, *fock_args):
        self.nu = nu_from_gamma(gamma)
        self.gamma = gamma
        self._fock = fock_space(self.nu, *fock_args)
        self.quad_order = self._fock.quad_order

    def _require_member(self, f):
        if not isinstance(f, self.member):
            raise TypeError(f"RBF-space elements must be {self.member.__name__} "
                            "(Gaussian envelope times series); other forms "
                            "have no Gaussian-compatible weight after the "
                            "isometry transform")
        if f.gamma != self.gamma:
            raise ValueError(f"element envelope gamma={f.gamma} does not match "
                             f"space gamma={self.gamma}")
        return f

    def inner_product(self, f, g):
        return self._fock.inner_product(self._require_member(f).series,
                                        self._require_member(g).series)

    def norm_sq(self, f) -> float:
        return self._fock.norm_sq(self._require_member(f).series)

    def gram(self, functions: Sequence) -> np.ndarray:
        return self._fock.gram([self._require_member(f).series for f in functions])

    def reproduce(self, f, w):
        """<f, K_w> by Fock-side quadrature; equals f(w) for members."""
        f = self._require_member(f)
        value = self._fock.reproduce(f.series, w)
        # the stripped kernel section, the Fock kernel at w times
        # exp(-conj(w)^2/g^2), has a constant right factor; it leaves the
        # integral as its conjugate exp(-w^2/g^2), on the left since the
        # envelope is intrinsic.  The Fock side has checked w.
        return finite_values("the reproduced value",
                             lambda: f.envelope(w) * value, w)


class RBFSliceSpace(_RBFSpace):
    """Quaternionic slice RBF space, nu = 2/gamma^2, prefactor 2/(pi gamma^2),
    over ``FockSliceSpace``.  ``inner_product_direct`` instead evaluates
    elements pointwise on the ``quad_order`` grid and re-weights
    explicitly, providing an independent route for isometry checks.
    """

    member = GaussSeries

    def __init__(self, gamma: float, unit: ImaginaryUnit = I_DEFAULT,
                 quad_order: int = DEFAULT_QUAD_ORDER):
        super().__init__(gamma, FockSliceSpace, unit, quad_order)

    def inner_product_direct(self, f, g) -> Quaternion:
        """Direct-weight route: pointwise values times exp(-4y^2/gamma^2),
        with the rule's Gaussian compensated explicitly."""
        f, g = self._require_member(f), self._require_member(g)
        (x, y, _), unit = self._fock.grid, self._fock.unit
        vals_f = f.eval_slice_grid(x, y, unit)
        vals_g = vals_f if g is f else g.eval_slice_grid(x, y, unit)
        comp = np.exp(-4.0 * y * y / (self.gamma * self.gamma)
                      + self.nu * (x ** 2 + y ** 2))
        # 2/(pi gamma^2) = nu/pi, so the Fock rule's sum applies as it is
        return self._fock._grid_pair(vals_f * comp[..., None], vals_g)


def _cd_series(f, dim: int) -> CPowerSeries:
    if not isinstance(f, CPowerSeries):
        raise TypeError("C^d Fock-space elements must be CPowerSeries")
    if f.dim != dim:
        raise ValueError(f"series on C^{f.dim} in a space on C^{dim}")
    return f


class FockCSpace:
    """Fock space on C^d: weight exp(-alpha|z|^2), prefactor (alpha/pi)^d.

    Weight and integrands factor over coordinates: integrals run on one
    coordinate's M x M grid, inner products on the moment table
    T[n, m] = sum W z^n conj(z)^m (``_fock_sums``).  ``quad_order`` bounds the
    degree of an inner product (a higher one is refused) and is the order
    of ``reproduce``.
    """

    def __init__(self, alpha: float, dim: int, quad_order: int | None = None):
        positive_finite("alpha", alpha)
        self.alpha = alpha
        self.dim = dimension(dim)
        self.quad_order = (quad_order if quad_order is not None
                           else DEFAULT_QUAD_ORDER if self.dim == 1 else 32)
        self.rule = gauss_hermite(self.quad_order, alpha)

    def _sums(self, functions, df: int, dg: int) -> np.ndarray:
        """(alpha/pi)^d ``_fock_sums`` of the functions' coefficients on
        the union of their multi-indices."""
        indices = sorted({k for f in functions for k, _ in f.terms})
        column = {k: t for t, k in enumerate(indices)}
        rows = np.zeros((len(functions), len(indices)), dtype=complex)
        for row, f in zip(rows, functions):
            for k, c in f.terms:
                row[column[k]] += c
        indices = np.array(indices, dtype=int).reshape(-1, self.dim)
        return (self.alpha / math.pi) ** self.dim * _fock_sums(
            self.alpha, self.quad_order, indices, rows, df, dg)

    def inner_product(self, f, g) -> complex:
        """<f, g> on the table of the higher degree of f and g."""
        f, g = _cd_series(f, self.dim), _cd_series(g, self.dim)
        return complex(self._sums([f, g], f.max_axis_degree,
                                  g.max_axis_degree)[0, 1])

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).real

    def gram(self, functions: Sequence) -> np.ndarray:
        """G[a, b] = <f_a, f_b> on the table of the highest degree, exactly
        Hermitian."""
        functions = [_cd_series(f, self.dim) for f in functions]
        degree = max((f.max_axis_degree for f in functions), default=0)
        h = self._sums(functions, degree, degree)
        return 0.5 * (h + h.conj().T)

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


class RBFCSpace(_RBFSpace):
    """Gaussian RBF space on C^d over ``FockCSpace`` (nu = 2/g^2)."""

    member = GaussCSeries

    def __init__(self, gamma: float, dim: int, quad_order: int | None = None):
        super().__init__(gamma, FockCSpace, dim, quad_order)
        self.dim = self._fock.dim


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
    """Compare the RBF norm of f on two slices by two routes: the moment
    table on ``unit_a``, ``inner_product_direct`` on ``unit_b``."""
    na = RBFSliceSpace(gamma, unit_a, quad_order).norm_sq(f)
    nb = RBFSliceSpace(gamma, unit_b, quad_order).inner_product_direct(f, f).w
    rel = abs(na - nb) / max(abs(na), abs(nb), 1e-300)
    return SliceIndependenceReport(norm_sq_a=na, norm_sq_b=nb, rel_diff=rel)
