"""Truncated power series: one quaternionic variable and d complex variables.

Quaternionic series carry right coefficients, f(q) = sum_n q^n a_n, the
form preserved by slice-regular function theory.  Multiplication is only
defined when the left factor has real (intrinsic) coefficients; that is the
one case in which coefficients slide past powers of q.

``GaussSeries`` is the factored form exp(-q^2/gamma^2) * (power series).
Elements of the Gaussian RBF spaces must be handled in this form: the
envelope is what makes their norm integrals Gaussian-weighted, and the
multiplication operator that maps them onto the Fock side simply strips it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _quatarray as qa
from ._checks import finite_points, finite_values, positive_finite
from .hypercomplex import (ImaginaryUnit, Quaternion, envelope_exponent,
                           intrinsic_exp_sq)

__all__ = [
    "DEGREE_CAP",
    "QPowerSeries",
    "GaussSeries",
    "CPowerSeries",
    "GaussCSeries",
    "multi_indices",
    "multi_order",
    "cauchy_mul",
    "beta_coeffs",
    "sequential_norm",
]

# Everything in scope is entire with factorially decaying coefficients, so a
# dense representation with a modest degree cap is enough.
DEGREE_CAP = 64

_ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)


def _as_quaternion(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion.from_real(value)
    raise TypeError(f"cannot use {type(value).__name__} as a series coefficient")


@dataclass(frozen=True)
class QPowerSeries:
    """Polynomial q |-> sum_n q^n a_n with right quaternionic coefficients."""

    coeffs: tuple[Quaternion, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs",
                           tuple(_as_quaternion(c) for c in self.coeffs))
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (_ZERO,))

    @classmethod
    def monomial(cls, degree: int, coeff=1.0) -> "QPowerSeries":
        return cls((_ZERO,) * degree + (_as_quaternion(coeff),))

    @classmethod
    def exp_sq(cls, gamma: float, sign: int = 1, degree: int = DEGREE_CAP) -> "QPowerSeries":
        """Series of exp(sign * q^2 / gamma^2) up to the given degree."""
        positive_finite("gamma", gamma)
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        coeffs = [_ZERO] * (degree + 1)
        c = 1.0
        coeffs[0] = Quaternion.from_real(1.0)
        for m in range(1, degree // 2 + 1):
            c *= sign / (gamma * gamma * m)
            coeffs[2 * m] = Quaternion.from_real(c)
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def has_real_coeffs(self) -> bool:
        return all(c.x == 0.0 and c.y == 0.0 and c.z == 0.0 for c in self.coeffs)

    def eval(self, q: Quaternion) -> Quaternion:
        """Value at q by the left Horner step acc = a + q acc; raises
        OverflowError naming q when the value leaves double range."""
        finite_points(q.to_list())
        return finite_values("the series value", lambda: functools.reduce(
            lambda acc, a: a + q * acc, self.coeffs[-2::-1], self.coeffs[-1]),
            q, numpy=False)

    def eval_points(self, q: np.ndarray) -> np.ndarray:
        """Values at quaternion points of shape (..., 4), equal bit for bit
        to ``eval`` at each point: the same left Horner step acc = a + q acc,
        with the same Hamilton product.  Raises OverflowError, as ``eval``
        does, naming the first point whose value is not finite."""
        q = np.asarray(q, dtype=float)
        finite_points(q)
        coeffs = np.array([c.to_list() for c in self.coeffs])
        return finite_values("the series value", lambda: functools.reduce(
            lambda acc, a: a + qa.qmul(q, acc), coeffs[-2::-1],
            np.broadcast_to(coeffs[-1], q.shape).copy()), q)

    def eval_slice_grid(self, x, y, unit: ImaginaryUnit) -> np.ndarray:
        """Values over the slice grid q = x + unit*y, shape (..., 4).
        Raises OverflowError naming the first point whose value is not
        finite, as ``GaussSeries.eval_slice_grid`` does."""
        def points():
            return (np.asarray(x, dtype=float)
                    + 1j * np.asarray(y, dtype=float))[..., None]
        return finite_values("the series value on a slice",
                             lambda: qa.horner_slice(self.coeffs, x, y, unit),
                             points, unit=unit)


@dataclass(frozen=True)
class GaussSeries:
    """Factored function q |-> exp(-q^2/gamma^2) * series(q)."""

    gamma: float
    series: QPowerSeries

    def __post_init__(self) -> None:
        positive_finite("gamma", self.gamma)

    def envelope(self, q: Quaternion) -> Quaternion:
        """exp(-q^2/gamma^2) at the point q, on its slice."""
        return intrinsic_exp_sq(self.gamma, q)

    def eval(self, q: Quaternion) -> Quaternion:
        env, value = self.envelope(q), self.series.eval(q)
        return finite_values("the series value", lambda: env * value, q,
                             numpy=False)

    def eval_slice_grid(self, x, y, unit: ImaginaryUnit) -> np.ndarray:
        """Values over q = x + unit*y, shape (..., 4).  The envelope lies
        in C_unit and multiplies from the left, so it scales both complex
        parts F1, F2 of the series (``_quatarray.split_horner``).  Raises
        OverflowError naming the first point whose value is not finite."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        z = x + 1j * y
        return finite_values("the series value on a slice", lambda: qa.join_pair(
            np.exp(envelope_exponent(self.gamma, x, y))
            * qa.split_horner(self.series.coeffs, z, unit), unit),
            z[..., None], unit=unit)


# ---------------------------------------------------------------------------
# multi-index helpers (plain tuples of non-negative ints)

def multi_order(index: Sequence[int]) -> int:
    return int(sum(index))


def dimension(dim) -> int:
    """dim as an int; raises ValueError naming it unless a whole number >= 1."""
    if not (isinstance(dim, numbers.Real) and dim >= 1 and float(dim).is_integer()):
        raise ValueError(f"dim must be a whole number of at least 1, got {dim!r}")
    return int(dim)


def multi_index(index, dim: int) -> tuple[int, ...]:
    """index as a tuple of ints; raises ValueError naming it unless it has
    ``dim`` entries, each a whole number >= 0."""
    try:
        index = tuple(index)
        cleaned = tuple(map(int, index))
    except (TypeError, ValueError, OverflowError):
        cleaned = None
    if (cleaned is None or len(cleaned) != dim
            or any(n < 0 or n != m for n, m in zip(cleaned, index))):
        raise ValueError(f"bad multi-index {index!r} for dimension {dim}")
    return cleaned


def basis_coeff(log_nu: float, index: Sequence[int]) -> float:
    """sqrt(nu^|n| / n!) for a multi-index n, in log space from log nu (nu
    itself may leave double range): the Fock and RBF basis normalization."""
    return math.exp(0.5 * (sum(index) * log_nu
                           - sum([math.lgamma(n + 1) for n in index])))


def multi_index_terms(terms, dim: int) -> tuple:
    """Pairs (multi-index, coefficient) checked by ``multi_index``, with
    complex coefficients, in graded order."""
    return tuple(sorted(((multi_index(index, dim), complex(coeff))
                         for index, coeff in terms),
                        key=lambda t: (multi_order(t[0]), t[0])))


def axis_degree(terms) -> int:
    """The highest power of one coordinate in the pairs ``terms``, or 0."""
    return max((max(idx) for idx, _ in terms), default=0)


def multi_indices(dim: int, max_order: int) -> Iterator[tuple[int, ...]]:
    """All indices of length ``dim`` with |n| <= max_order, graded order."""
    def gen(order, d):
        if d == 1:
            yield (order,)
            return
        for first in range(order, -1, -1):
            for rest in gen(order - first, d - 1):
                yield (first,) + rest

    for order in range(max_order + 1):
        yield from gen(order, dim)


@dataclass(frozen=True)
class CPowerSeries:
    """Series z |-> sum_n z^n c_n over C^d in multi-index notation."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", dimension(self.dim))
        object.__setattr__(self, "terms", multi_index_terms(self.terms, self.dim))

    @property
    def max_axis_degree(self) -> int:
        return axis_degree(self.terms)

    def eval(self, z: Sequence[complex]) -> complex:
        return complex(self.eval_points(np.reshape(z, (1, self.dim)))[0])

    def eval_points(self, zpts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at points of shape (npoints, dim); raises
        OverflowError naming the first point whose value is not finite."""
        zpts = np.asarray(zpts, dtype=complex)
        finite_points(zpts)

        def total():
            out = np.zeros(zpts.shape[0], dtype=complex)
            for index, coeff in self.terms:
                p = np.full(zpts.shape[0], coeff, dtype=complex)
                for axis, nl in enumerate(index):
                    if nl:
                        p *= zpts[:, axis] ** nl
                out += p
            return out
        return finite_values("the series value", total, zpts)


@dataclass(frozen=True)
class GaussCSeries:
    """Factored function z |-> exp(-z^2/gamma^2) * series(z), z^2 = sum z_l^2."""

    gamma: float
    series: CPowerSeries

    def __post_init__(self) -> None:
        positive_finite("gamma", self.gamma)

    @property
    def dim(self) -> int:
        return self.series.dim

    def eval(self, z: Sequence[complex]) -> complex:
        return complex(self.eval_points(np.reshape(z, (1, self.dim)))[0])

    def envelope(self, z) -> np.ndarray:
        """exp(-z^2/gamma^2) at points (..., dim), inf past double range."""
        z = np.asarray(z, dtype=complex)
        return np.exp(-np.sum(z * z, axis=-1) / (self.gamma * self.gamma))

    def eval_points(self, zpts: np.ndarray) -> np.ndarray:
        """Values at points (npoints, dim), refused as the series' are."""
        zpts = np.asarray(zpts, dtype=complex)
        values = self.series.eval_points(zpts)
        return finite_values("the series value",
                             lambda: self.envelope(zpts) * values, zpts)


# ---------------------------------------------------------------------------
# coefficient maps

def cauchy_mul(f: QPowerSeries, g: QPowerSeries,
               max_degree: int | None = None) -> QPowerSeries:
    """Cauchy product of an intrinsic series f with a general series g.

    Requires f to have real coefficients: only then do its coefficients
    commute past the powers of q, making (sum q^j s_j)(sum q^m a_m) equal
    to sum_k q^k sum_j s_j a_{k-j}.
    """
    if not f.has_real_coeffs():
        raise ValueError("left factor must have real (intrinsic) coefficients")
    out_degree = f.degree + g.degree
    if max_degree is not None:
        out_degree = min(out_degree, max_degree)
    a = np.array([c.to_list() for c in g.coeffs])
    out = np.zeros((out_degree + 1, 4))
    # term j adds s_j a_{k-j} to every coefficient k at once, in the order of j
    for j, s in enumerate(c.w for c in f.coeffs[:out_degree + 1]):
        if s != 0.0:
            n = min(len(a), out_degree + 1 - j)
            out[j:j + n] += a[:n] * s
    return QPowerSeries(tuple(Quaternion(*row) for row in out))


def beta_coeffs(gamma: float, coeffs: Sequence[Quaternion], k_max: int,
                sign: int = 1) -> tuple[Quaternion, ...]:
    """Coefficients of exp(sign * q^2/gamma^2) * f for f = sum q^n a_n.

    beta_k = sum_{j=0..floor(k/2)} sign^j * a_{k-2j} / (gamma^{2j} j!), the
    Cauchy product with the envelope's series, each a finite exact sum;
    indices of ``coeffs`` beyond its length count as zero.
    """
    envelope = QPowerSeries.exp_sq(gamma, sign, k_max)
    return cauchy_mul(envelope, QPowerSeries(tuple(coeffs)), k_max).coeffs


def sequential_norm(gamma: float, coeffs: Sequence[Quaternion], k_max: int) -> float:
    """Partial sum sum_{k<=k_max} (k! gamma^{2k} / 2^k) |beta_k|^2.

    This is the squared RBF-space norm of sum q^n a_n in the limit
    k_max -> infinity; the weight is 1 / ``basis_coeff``(log nu, k)^2 with
    nu = 2/gamma^2.  Raises OverflowError naming gamma when a weight or the
    sum leaves double range.
    """
    betas = beta_coeffs(gamma, coeffs, k_max)
    log_nu = math.log(2.0) - 2.0 * math.log(gamma)
    return finite_values("the sequential norm", lambda: math.fsum(
        b.norm_sq() / basis_coeff(log_nu, (k,)) ** 2
        for k, b in enumerate(betas)), numpy=False, gamma=gamma)
