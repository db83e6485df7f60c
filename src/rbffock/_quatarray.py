"""Vectorized quaternion arithmetic on numpy arrays of shape (..., 4).

Internal helpers used by the quadrature and function-space code.  The last
axis holds the components (w, x, y, z); slice grids are embedded from their
(x, y) coordinates and a unit imaginary quaternion.  Points are decomposed
into slices by the per-point rule of ``hypercomplex.slice_parts``, mapped
over the rows (``slice_decompose_arr``).

Series are evaluated on a slice C_I by the splitting lemma (Gentili and
Struppa, Adv. Math. 216, 2007): with J orthogonal to I and K = IJ, each
right coefficient splits as a = A + B J with A, B in C_I (``split_pair``),
so sum_n q^n a_n = F1(z) + F2(z) J for the complex polynomials
F1 = sum z^n A_n and F2 = sum z^n B_n.  ``split_horner`` evaluates the pair
(F1, F2) and ``join_pair`` maps it back to components once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._checks import finite_points
from .hypercomplex import ImaginaryUnit, Quaternion, slice_parts, star_exp_on_slice

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


def slice_decompose_arr(q: np.ndarray):
    """``hypercomplex.slice_decompose`` of every point of q, shape (..., 4).

    Returns x, y of shape (...) and the units, shape (..., 3), by the one
    per-point rule ``hypercomplex.slice_parts``.  Raises ValueError naming
    the first point with a non-finite component or a vector part whose
    norm leaves double range.
    """
    q = np.asarray(q, dtype=float)
    finite_points(q)
    vec = q[..., 1:].reshape(-1, 3).tolist()
    parts = np.fromiter(itertools.starmap(slice_parts, vec),
                        np.dtype((float, 4)), len(vec)).reshape(q.shape)
    y = parts[..., 0]
    if (y == math.inf).any():
        raise ValueError(f"the vector part of {q[y == math.inf][0].tolist()} "
                         "has a norm beyond double range")
    return q[..., 0], y, parts[..., 1:]


def slice_frame(unit: ImaginaryUnit) -> np.ndarray:
    """Rows I, J, K = IJ: an orthonormal frame of imaginary vectors.

    J is the coordinate axis least aligned with I, made orthogonal to it;
    that axis makes an angle of at least arccos(1/sqrt3) with I, so the
    normalization never divides by a small number.  Shared, so read-only,
    per unit bits: units equal but for signed zeros differ in the frame.
    """
    return _frame(np.array([unit.x, unit.y, unit.z]).tobytes())


@functools.lru_cache(maxsize=64)
def _frame(bits: bytes) -> np.ndarray:
    i = np.frombuffer(bits)
    axis = np.zeros(3)
    axis[np.argmin(np.abs(i))] = 1.0
    j = axis - (axis @ i) * i
    j /= np.linalg.norm(j)
    # K = I x J, the same float products and differences as np.cross
    (i0, i1, i2), (j0, j1, j2) = i.tolist(), j.tolist()
    frame = np.array([i, j, [i1 * j2 - i2 * j1, i2 * j0 - i0 * j2,
                             i0 * j1 - i1 * j0]])
    frame.setflags(write=False)
    return frame


def split_pair(parts, unit: ImaginaryUnit) -> tuple:
    """(A, B), complex with i standing for ``unit``, with a = A + B J for
    the quaternions a of components ``parts`` (..., 4): A = w + (a.I) i and
    B = (a.J) + (a.K) i.  The inverse of ``join_pair``."""
    parts = np.asarray(parts, dtype=float)
    dots = parts[..., 1:] @ slice_frame(unit).T
    return parts[..., 0] + 1j * dots[..., 0], dots[..., 1] + 1j * dots[..., 2]


def split_horner(coeffs, z: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """(F1, F2) with sum_n q^n a_n = F1(z) + F2(z) J at q = Re z + unit*Im z.

    Shape (2,) + z.shape, complex, with i standing for ``unit``.  The
    coefficients split as a_n = A_n + B_n J (``split_pair``); one complex
    Horner recursion runs on both.
    """
    z = np.asarray(z, dtype=complex)
    pair = np.array(split_pair([a.to_list() for a in coeffs], unit))
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
