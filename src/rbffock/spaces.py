"""Inner products, norms, and reproducing-property evaluation for the slice
Fock space, the quaternionic RBF space, and their C^d counterparts.

The RBF weight exp((q - conj(q))^2 / gamma^2) = exp(-4y^2/gamma^2) decays
only along the imaginary axis, so direct two-dimensional quadrature of RBF
integrals is ill-posed for generic integrands.  All RBF-space integrals are
therefore routed through the multiplication isometry onto the Fock side
(strip the Gaussian envelope, integrate against the full Gaussian weight
exp(-nu|q|^2) with nu = 2/gamma^2), where Gauss-Hermite rules are exact.
That forces a representation discipline: RBF-space elements enter as
``GaussSeries`` / ``GaussCSeries`` (envelope times series); plain callables
are accepted only with a polynomial-growth certificate and only on the
Fock side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _quatarray as qa
from .hypercomplex import (I_DEFAULT, ImaginaryUnit, Quaternion, SlicePoint,
                           intrinsic_exp_sq, star_exp)
from .kernels import fock_kernel_d, rbf_kernel_d, rbf_kernel_qslice
from .quadrature import (DEFAULT_QUAD_ORDER, NODE_BUDGET, QuadratureRule,
                         compensated_sum, gauss_hermite)
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     beta_coeffs)

__all__ = [
    "HandleFunction",
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


@dataclass(frozen=True)
class HandleFunction:
    """Slice-domain integrand given as a callable with a growth certificate.

    ``poly_degree`` certifies that fn grows at most like a polynomial of
    that degree, so a rule of order M integrates products exactly whenever
    the combined degree stays below 2M.
    """

    fn: Callable[..., Quaternion]
    poly_degree: int

    def eval_slice_grid(self, x, y, unit: ImaginaryUnit) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        vals = np.empty(x.shape + (4,))
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            q = self.fn(SlicePoint(float(x[idx]), float(y[idx]), unit))
            vals[idx] = (q.w, q.x, q.y, q.z)
        return vals


def _slice_poly_degree(f) -> int:
    if isinstance(f, (QPowerSeries, GaussSeries)):
        return f.degree
    if isinstance(f, HandleFunction):
        return f.poly_degree
    raise TypeError(
        "inner products need a series, a Gaussian-enveloped series, or a "
        "HandleFunction carrying a polynomial-growth certificate; a bare "
        "callable gives the quadrature no decay guarantee")


class FockSliceSpace:
    """Slice Fock space: weight exp(-nu|q|^2) on C_unit, prefactor nu/pi."""

    def __init__(self, nu: float, unit: ImaginaryUnit = I_DEFAULT,
                 quad_order: int = DEFAULT_QUAD_ORDER):
        if nu <= 0.0:
            raise ValueError("nu must be positive")
        self.nu = nu
        self.unit = unit
        self.quad_order = quad_order
        self.rule: QuadratureRule = gauss_hermite(quad_order, nu)
        self._xg, self._yg = np.meshgrid(self.rule.nodes, self.rule.nodes,
                                         indexing="ij")
        self._wg = self.rule.weights[:, None] * self.rule.weights[None, :]

    # -- evaluation ---------------------------------------------------

    def _grid_values(self, f) -> np.ndarray:
        degree = _slice_poly_degree(f)
        if degree > 2 * self.quad_order - 1:
            raise ValueError(
                f"certified degree {degree} exceeds quadrature exactness "
                f"{2 * self.quad_order - 1}; raise quad_order")
        return f.eval_slice_grid(self._xg, self._yg, self.unit)

    def _pair_integral(self, vals_f: np.ndarray, vals_g: np.ndarray) -> Quaternion:
        integrand = qa.qmul(qa.qconj(vals_g), vals_f)
        scale = self.nu / math.pi
        comps = [scale * compensated_sum(self._wg * integrand[..., c])
                 for c in range(4)]
        return Quaternion(*comps)

    # -- public api ---------------------------------------------------

    def inner_product(self, f, g) -> Quaternion:
        """<f, g> = (nu/pi) * integral conj(g) f exp(-nu|q|^2)."""
        if _slice_poly_degree(f) + _slice_poly_degree(g) > 2 * self.quad_order - 1:
            raise ValueError("combined integrand degree exceeds quadrature "
                             "exactness; raise quad_order")
        return self._pair_integral(self._grid_values(f), self._grid_values(g))

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).w

    def gram(self, functions: Sequence) -> np.ndarray:
        """All pairwise inner products, shape (n, n, 4), G[a,b] = <f_a, f_b>."""
        values = [self._grid_values(f) for f in functions]
        n = len(values)
        out = np.empty((n, n, 4))
        for a in range(n):
            for b in range(a, n):
                ip = self._pair_integral(values[a], values[b])
                out[a, b] = (ip.w, ip.x, ip.y, ip.z)
                if a != b:
                    out[b, a] = (ip.w, -ip.x, -ip.y, -ip.z)
        return out

    def kernel(self, q: Quaternion, p: Quaternion) -> Quaternion:
        return star_exp(self.nu, q, p)

    def reproduce(self, f, w: Quaternion) -> Quaternion:
        """Evaluate <f, K_w> by quadrature; equals f(w) for f in the space."""
        kvals = qa.star_exp_grid(self.nu, self._xg, self._yg, self.unit, w)
        return self._pair_integral(self._grid_values(f), kvals)


class RBFSliceSpace:
    """Quaternionic slice RBF space, nu = 2/gamma^2, prefactor 2/(pi gamma^2).

    Elements are Gaussian-enveloped series; every integral is computed on
    the Fock side after stripping the envelope (exact, no truncation).
    ``inner_product_direct`` instead evaluates elements pointwise and
    re-weights explicitly, providing an independent route for isometry
    checks.
    """

    def __init__(self, gamma: float, unit: ImaginaryUnit = I_DEFAULT,
                 quad_order: int = DEFAULT_QUAD_ORDER):
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        self.gamma = gamma
        self.nu = 2.0 / (gamma * gamma)
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
        f = self._require_member(f)
        g = self._require_member(g)
        return self._fock.inner_product(f.series, g.series)

    def inner_product_direct(self, f, g) -> Quaternion:
        """Direct-weight route: pointwise values times exp(-4y^2/gamma^2),
        with the rule's Gaussian compensated explicitly."""
        f = self._require_member(f)
        g = self._require_member(g)
        fock = self._fock
        vals_f = f.eval_slice_grid(fock._xg, fock._yg, self.unit)
        vals_g = g.eval_slice_grid(fock._xg, fock._yg, self.unit)
        y = fock._yg
        comp = np.exp(-4.0 * y * y / (self.gamma * self.gamma)
                      + self.nu * (fock._xg ** 2 + y ** 2))
        integrand = qa.qmul(qa.qconj(vals_g), vals_f) * comp[..., None]
        scale = 2.0 / (math.pi * self.gamma * self.gamma)
        comps = [scale * compensated_sum(fock._wg * integrand[..., c])
                 for c in range(4)]
        return Quaternion(*comps)

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).w

    def gram(self, functions: Sequence) -> np.ndarray:
        return self._fock.gram([self._require_member(f).series for f in functions])

    def kernel(self, q: Quaternion, p: Quaternion) -> Quaternion:
        return rbf_kernel_qslice(self.gamma, q, p)

    def reproduce(self, f, w: Quaternion) -> Quaternion:
        """<f, K_w> by Fock-side quadrature; equals f(w) for members."""
        f = self._require_member(f)
        fock = self._fock
        # envelope-stripped kernel section: star_exp(q, w) * exp(-conj(w)^2/g^2)
        kvals = qa.star_exp_grid(self.nu, fock._xg, fock._yg, self.unit, w)
        tail = intrinsic_exp_sq(self.gamma, w.conjugate(), -1)
        kvals = qa.qmul(kvals, qa.qconst(tail))
        return fock._pair_integral(fock._grid_values(f.series), kvals)


def _cd_poly_degree(f) -> int:
    if isinstance(f, (CPowerSeries, GaussCSeries)):
        return f.series.max_axis_degree if isinstance(f, GaussCSeries) \
            else f.max_axis_degree
    raise TypeError("C^d inner products need a CPowerSeries or GaussCSeries")


class FockCSpace:
    """Fock space on C^d: weight exp(-alpha|z|^2), prefactor (alpha/pi)^d."""

    def __init__(self, alpha: float, dim: int, quad_order: int | None = None):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.alpha = alpha
        self.dim = dim
        self.quad_order = quad_order or (DEFAULT_QUAD_ORDER if dim == 1 else 32)
        if self.quad_order ** (2 * dim) > NODE_BUDGET:
            raise ValueError("node budget exceeded; lower quad_order or dim")
        self.rule = gauss_hermite(self.quad_order, alpha)

    def _slabs(self):
        """Yield (zpts (m, dim) complex, weights (m,)) in fixed order."""
        x = self.rule.nodes
        w = self.rule.weights
        n_axes = 2 * self.dim
        rest = np.meshgrid(*([x] * (n_axes - 1)), indexing="ij")
        rest_pts = np.stack([g.ravel() for g in rest], axis=-1)
        rest_w = np.ones(rest_pts.shape[0])
        for g in np.meshgrid(*([w] * (n_axes - 1)), indexing="ij"):
            rest_w = rest_w * g.ravel()
        coords = np.empty((rest_pts.shape[0], n_axes))
        coords[:, 1:] = rest_pts
        for i in range(x.size):
            coords[:, 0] = x[i]
            zpts = coords[:, 0::2] + 1j * coords[:, 1::2]
            yield zpts, w[i] * rest_w

    def _values(self, f, zpts: np.ndarray) -> np.ndarray:
        return f.eval_points(zpts)

    def inner_product(self, f, g) -> complex:
        if _cd_poly_degree(f) + _cd_poly_degree(g) > 2 * self.quad_order - 1:
            raise ValueError("combined integrand degree exceeds quadrature "
                             "exactness; raise quad_order")
        re_parts, im_parts = [], []
        for zpts, wts in self._slabs():
            vals = np.conj(self._values(g, zpts)) * self._values(f, zpts)
            re_parts.append(compensated_sum(wts * vals.real))
            im_parts.append(compensated_sum(wts * vals.imag))
        scale = (self.alpha / math.pi) ** self.dim
        return scale * complex(math.fsum(re_parts), math.fsum(im_parts))

    def norm_sq(self, f) -> float:
        return self.inner_product(f, f).real

    def gram(self, functions: Sequence) -> np.ndarray:
        n = len(functions)
        out = np.zeros((n, n), dtype=complex)
        for zpts, wts in self._slabs():
            vals = np.stack([self._values(f, zpts) for f in functions])
            out += (np.conj(vals) * wts) @ vals.T
        return out.T * (self.alpha / math.pi) ** self.dim

    def kernel(self, z, w) -> complex:
        return fock_kernel_d(self.alpha, z, w)

    def reproduce(self, f, w: Sequence[complex]) -> complex:
        _cd_poly_degree(f)
        w = np.asarray(w, dtype=complex)
        re_parts, im_parts = [], []
        for zpts, wts in self._slabs():
            kconj = np.exp(self.alpha * (np.conj(zpts) @ w))
            vals = kconj * self._values(f, zpts)
            re_parts.append(compensated_sum(wts * vals.real))
            im_parts.append(compensated_sum(wts * vals.imag))
        scale = (self.alpha / math.pi) ** self.dim
        return scale * complex(math.fsum(re_parts), math.fsum(im_parts))


class RBFCSpace:
    """Gaussian RBF space on C^d, routed through the Fock side (nu = 2/g^2)."""

    def __init__(self, gamma: float, dim: int, quad_order: int | None = None):
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        self.gamma = gamma
        self.nu = 2.0 / (gamma * gamma)
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

    def kernel(self, z, w) -> complex:
        return rbf_kernel_d(self.gamma, z, w)

    def reproduce(self, f, w: Sequence[complex]) -> complex:
        f = self._require_member(f)
        w = np.asarray(w, dtype=complex)
        env = np.exp(-np.sum(w * w) / (self.gamma * self.gamma))
        return complex(env) * self._fock.reproduce(f.series, w)


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

    Returns the max of |f(q)| / bound; values above 1 violate the bound.
    """
    space = RBFSliceSpace(gamma, unit, quad_order)
    norm = math.sqrt(space.norm_sq(f))
    worst = None
    max_ratio = -math.inf
    for sp in points:
        q = sp.to_quaternion()
        bound = math.exp(2.0 * sp.y * sp.y / (gamma * gamma)) * norm
        ratio = abs(f.eval(q)) / bound
        if ratio > max_ratio:
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
