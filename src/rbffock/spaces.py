"""Inner products, norms, and reproducing-property evaluation for the slice
Fock space, the quaternionic RBF space, and their C^d counterparts.

The RBF weight exp((q - conj(q))^2 / gamma^2) = exp(-4y^2/gamma^2) decays
only along the imaginary axis, so direct two-dimensional quadrature of RBF
integrals is ill-posed for generic integrands.  All RBF-space integrals are
therefore routed through the multiplication isometry onto the Fock side
(strip the Gaussian envelope, integrate against the full Gaussian weight
exp(-nu|q|^2) with nu = 2/gamma^2), where the monomials are orthogonal
with norms n!/nu^n in closed form and Gauss-Hermite rules are exact.
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
from .quadrature import (DEFAULT_QUAD_ORDER, QuadratureRule, exact_order,
                         gauss_hermite, integrate_rd)
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


@functools.lru_cache(maxsize=64)
def _weights(alpha: float, degree: int) -> np.ndarray:
    """||z^n||^2 = n!/alpha^n, n <= degree, the Fock norms of the monomials
    (the moments (alpha/pi) integral |z|^(2n) exp(-alpha|z|^2)), each
    rounded once from the exact rational by int true division; shared, so
    read-only.  OverflowError when one leaves double range."""
    num, den = float(alpha).as_integer_ratio()
    top, bottom, weights = 1, 1, np.ones(degree + 1)
    for n in range(1, degree + 1):
        top, bottom = top * n * den, bottom * num
        weights[n] = top / bottom
    weights.setflags(write=False)
    return weights


def _fock_sums(alpha: float, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The Fock inner products h = R diag(w) R^H of the functions whose
    coefficients on the monomials of ``indices`` (U, d) are the rows R
    (n, U): the monomials are orthogonal, with w_t = prod_l
    n_{t,l}!/alpha^{n_{t,l}} (``_weights``).  R takes the factors of w_t
    one coordinate at a time, so no product of them overflows alone."""
    weights = _weights(alpha, int(indices.max(initial=0)))
    weighted = functools.reduce(lambda r, n: r * weights[n], indices.T, rows)
    return weighted @ rows.conj().T


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
    (``_join``).  Inner products, norms and Grams take those from the
    closed-form monomial norms (``_fock_sums``), exact at every degree;
    ``quad_order`` is the order of the grid of ``reproduce``.
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
        """Quaternion inner products, shape (n, m, 4), from the complex ones
        h = <u, v> of the rows u = (F1_a; F2_a) against the rows
        v = (G1_b; G2_b): <f, g> = X + Y J with X = <F1, G1> + conj<F2, G2>
        and Y = <F2, G1> - conj<F1, G2>."""
        h = h.reshape(2, len(h) // 2, 2, h.shape[1] // 2)
        (f1g1, f1g2), (f2g1, f2g2) = h.swapaxes(1, 2)
        return qa.join_pair((f1g1 + np.conj(f2g2), f2g1 - np.conj(f1g2)),
                            self.unit)

    def _grid_pair(self, f_values: np.ndarray, g_values: np.ndarray) -> np.ndarray:
        """<f_a, g_b>, shape (n, m, 4), of values (n, M, M, 4), (m, M, M, 4)
        on the ``quad_order`` grid: the real products P = sum W f_c g_d, one
        matrix product, split block by block (the split is linear) as
        S P S^H, S = ``split_pair``(eye(4))."""
        n, m = len(f_values), len(g_values)
        f, g = (np.moveaxis(v.reshape(len(v), -1, 4), 0, 1).reshape(-1, 4 * len(v))
                for v in (f_values, g_values))
        p = ((f * self.grid.w[:, None]).T @ g).reshape(n, 4, m, 4).swapaxes(1, 2)
        S = np.array(qa.split_pair(np.eye(4), self.unit))
        h = (S @ p @ S.conj().T).transpose(2, 0, 3, 1).reshape(2 * n, 2 * m)
        return self._join((self.nu / math.pi) * h)

    # -- public api ---------------------------------------------------

    def _sums(self, functions, part) -> np.ndarray:
        """Quaternion inner products from ``part`` of the ``_fock_sums`` of
        the split functions; OverflowError naming nu unless finite."""
        functions = [_slice_series(f) for f in functions]
        return finite_values("an inner product", lambda: self._join(part(
            _fock_sums(self.nu, *_split_rows(functions, self.unit)))), nu=self.nu)

    def inner_product(self, f, g) -> Quaternion:
        """<f, g> = (nu/pi) * integral conj(g) f exp(-nu|q|^2)."""
        return Quaternion(*self._sums([f, g], lambda h: h[0::2, 1::2])[0, 0])

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).w

    def gram(self, functions: Sequence) -> np.ndarray:
        """All pairwise inner products, shape (n, n, 4), G[a,b] = <f_a, f_b>,
        exactly quaternion-Hermitian."""
        return self._sums(functions, lambda h: 0.5 * (h + h.conj().T))

    def reproduce(self, f, w: Quaternion) -> Quaternion:
        """Evaluate <f, K_w> by quadrature on the ``quad_order`` grid; equals
        f(w) for f in the space."""
        f = _slice_series(f)
        exact_order(f.degree, self.quad_order, "series degree")
        x, y = self.grid.x, self.grid.y
        return Quaternion(*self._grid_pair(
            f.eval_slice_grid(x, y, self.unit)[None],
            qa.star_exp_grid(self.nu, x, y, self.unit, w)[None])[0, 0])


class _RBFSpace:
    """A Gaussian RBF space: the image of a Fock space at nu = 2/gamma^2
    under multiplication by the envelope exp(-z^2/gamma^2).

    Elements are Gaussian-enveloped series of the class ``member``.  Every
    inner product strips the envelope and runs on the Fock side (exact, in
    closed form); ``reproduce`` puts the envelope at the point back.
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
        exact_order(f.series.degree + g.series.degree, self.quad_order)
        (x, y, _), unit = self._fock.grid, self._fock.unit
        vals_f = f.eval_slice_grid(x, y, unit)
        vals_g = vals_f if g is f else g.eval_slice_grid(x, y, unit)
        comp = np.exp(-4.0 * y * y / (self.gamma * self.gamma)
                      + self.nu * (x ** 2 + y ** 2))
        # 2/(pi gamma^2) = nu/pi, so the Fock rule's sum applies as it is
        return Quaternion(*self._fock._grid_pair(vals_f[None] * comp[..., None],
                                                 vals_g[None])[0, 0])


def _cd_series(f, dim: int) -> CPowerSeries:
    if not isinstance(f, CPowerSeries):
        raise TypeError("C^d Fock-space elements must be CPowerSeries")
    if f.dim != dim:
        raise ValueError(f"series on C^{f.dim} in a space on C^{dim}")
    return f


class FockCSpace:
    """Fock space on C^d: weight exp(-alpha|z|^2), prefactor (alpha/pi)^d.

    The monomials are orthogonal, so inner products, norms and Grams are
    closed forms (``_fock_sums``); ``reproduce``'s integrand factors over
    coordinates, on one coordinate's M x M grid of order ``quad_order``.
    """

    def __init__(self, alpha: float, dim: int, quad_order: int | None = None):
        positive_finite("alpha", alpha)
        self.alpha = alpha
        self.dim = dimension(dim)
        self.quad_order = (quad_order if quad_order is not None
                           else DEFAULT_QUAD_ORDER if self.dim == 1 else 32)
        self.rule = gauss_hermite(self.quad_order, alpha)

    def _sums(self, functions, part) -> np.ndarray:
        """``part`` of the ``_fock_sums`` of the functions on the union of
        their multi-indices; OverflowError naming alpha unless finite."""
        functions = [_cd_series(f, self.dim) for f in functions]
        indices = sorted({k for f in functions for k, _ in f.terms})
        column = {k: t for t, k in enumerate(indices)}
        rows = np.zeros((len(functions), len(indices)), dtype=complex)
        for row, f in zip(rows, functions):
            for k, c in f.terms:
                row[column[k]] += c
        indices = np.array(indices, dtype=int).reshape(-1, self.dim)
        return finite_values("an inner product", lambda: part(
            _fock_sums(self.alpha, indices, rows)), alpha=self.alpha)

    def inner_product(self, f, g) -> complex:
        return complex(self._sums([f, g], lambda h: h[0, 1]))

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).real

    def gram(self, functions: Sequence) -> np.ndarray:
        """G[a, b] = <f_a, f_b>, exactly Hermitian."""
        return self._sums(functions, lambda h: 0.5 * (h + h.conj().T))

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
        powers = np.vander(z, f.max_axis_degree + 1, increasing=True).T
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
    """Compare the RBF norm of f on two slices by two routes: the closed
    form on ``unit_a``, ``inner_product_direct`` on ``unit_b``."""
    na = RBFSliceSpace(gamma, unit_a, quad_order).norm_sq(f)
    nb = RBFSliceSpace(gamma, unit_b, quad_order).inner_product_direct(f, f).w
    rel = abs(na - nb) / max(abs(na), abs(nb), 1e-300)
    return SliceIndependenceReport(norm_sq_a=na, norm_sq_b=nb, rel_diff=rel)
