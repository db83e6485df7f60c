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

import numpy as np

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


def embed_complex_arr(z: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """Embed complex x + i*y arrays as quaternions x + unit*y."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, unit.x * z.imag, unit.y * z.imag, unit.z * z.imag],
                    axis=-1)


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
    return np.stack(star_exp_on_slice(nu, z, unit, p), axis=-1)
