"""Vectorized quaternion arithmetic on numpy arrays of shape (..., 4).

Internal helpers used by the quadrature and function-space code.  The last
axis holds the components (w, x, y, z); slice grids are embedded from their
(x, y) coordinates and a unit imaginary quaternion.

Series are evaluated on a slice C_I by the splitting lemma (Gentili and
Struppa, Adv. Math. 216, 2007): with J orthogonal to I and K = IJ, each
right coefficient splits as a = A + B J with A, B in C_I, so
sum_n q^n a_n = F1(z) + F2(z) J for the complex polynomials F1 = sum z^n A_n
and F2 = sum z^n B_n.  ``split_horner`` evaluates the pair (F1, F2) and
``join_pair`` maps it back to components once.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._checks import finite_points
from .hypercomplex import ImaginaryUnit, Quaternion, star_exp_on_slice

CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise Hamilton product, broadcasting over leading axes."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def qconj(a: np.ndarray) -> np.ndarray:
    return a * CONJ_SIGNS


def _hypot_rows(v: np.ndarray) -> np.ndarray:
    """math.hypot of each row of v, shape (..., 3) -> (...)."""
    rows = v.reshape(-1, 3).T.tolist()
    return np.fromiter(map(math.hypot, *rows), float,
                       len(rows[0])).reshape(v.shape[:-1])


def slice_decompose_arr(q: np.ndarray):
    """``hypercomplex.slice_decompose`` of every point of q, shape (..., 4).

    Returns x, y of shape (...) and the units, shape (..., 3), equal bit
    for bit to the scalar form: y is math.hypot of the vector part, a real
    point gets y = 0 and the unit i, and a subnormal vector part is scaled
    by 2^600 before it is normalized.  Raises ValueError naming the first
    point with a non-finite component or a vector part whose norm leaves
    double range.
    """
    q = np.asarray(q, dtype=float)
    finite_points(q)
    vec = q[..., 1:]
    y = _hypot_rows(vec)
    if (y == math.inf).any():
        raise ValueError(f"the vector part of {q[y == math.inf][0].tolist()} "
                         "has a norm beyond double range")
    # subnormal parts carry too few bits for a unit of norm 1; scaling by a
    # power of two is exact
    real = y == 0.0
    tiny = ~real & (y < sys.float_info.min)
    vec = vec.copy()
    vec[tiny] *= 2.0 ** 600
    norm = np.where(real, 1.0, y)
    norm[tiny] = _hypot_rows(vec[tiny])
    units = vec / norm[..., None]
    units[real] = (1.0, 0.0, 0.0)
    return q[..., 0], y, units


def slice_frame(unit: ImaginaryUnit) -> np.ndarray:
    """Rows I, J, K = IJ: an orthonormal frame of imaginary vectors.

    J is the coordinate axis least aligned with I, made orthogonal to it;
    that axis makes an angle of at least arccos(1/sqrt3) with I, so the
    normalization never divides by a small number.
    """
    i = np.array([unit.x, unit.y, unit.z])
    axis = np.zeros(3)
    axis[np.argmin(np.abs(i))] = 1.0
    j = axis - (axis @ i) * i
    j /= np.linalg.norm(j)
    return np.array([i, j, np.cross(i, j)])


def split_horner(coeffs, z: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """(F1, F2) with sum_n q^n a_n = F1(z) + F2(z) J at q = Re z + unit*Im z.

    Shape (2,) + z.shape, complex, with i standing for ``unit``.  The
    coefficients split as a_n = A_n + B_n J, A_n = w + (a.I) i and
    B_n = (a.J) + (a.K) i; one complex Horner recursion runs on both.
    """
    z = np.asarray(z, dtype=complex)
    frame = slice_frame(unit)
    parts = np.array([a.to_list() for a in coeffs])
    dots = parts[:, 1:] @ frame.T
    pair = np.array([parts[:, 0] + 1j * dots[:, 0],
                     dots[:, 1] + 1j * dots[:, 2]])
    pair = pair.reshape(pair.shape + (1,) * z.ndim)
    acc = np.broadcast_to(pair[:, -1], (2,) + z.shape).copy()
    for n in range(pair.shape[1] - 2, -1, -1):
        acc *= z
        acc += pair[:, n]
    return acc


def join_pair(pair: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """Components (..., 4) of F1 + F2 J from ``pair`` = (F1, F2):
    w = Re F1 and vector part Im F1 I + Re F2 J + Im F2 K."""
    f1, f2 = pair
    i, j, k = slice_frame(unit)
    return np.stack([f1.real] + [f1.imag * i[c] + f2.real * j[c] + f2.imag * k[c]
                                 for c in range(3)], axis=-1)


def horner_slice(coeffs, x: np.ndarray, y: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """Evaluate sum_n q^n a_n over the slice grid q = x + unit*y.

    ``coeffs`` is a sequence of Quaternion; powers of q multiply from the
    left.  The sum is the complex pair of ``split_horner``, mapped back to
    components (w, x, y, z) along the last axis.
    """
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    return join_pair(split_horner(coeffs, z, unit), unit)


def star_exp_grid(nu: float, x: np.ndarray, y: np.ndarray, unit: ImaginaryUnit,
                  p: Quaternion) -> np.ndarray:
    """Star exponential sum_n nu^n q^n conj(p)^n / n! over the slice grid
    q = x + unit*y, in closed form (see ``hypercomplex.star_exp_on_slice``)."""
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    return star_exp_on_slice(nu, z, unit, p)
