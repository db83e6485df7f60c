"""Vectorized quaternion arithmetic on numpy arrays of shape (..., 4).

Internal helpers used by the quadrature and function-space code.  The last
axis holds the components (w, x, y, z); slice grids are embedded from their
(x, y) coordinates and a unit imaginary quaternion.
"""

from __future__ import annotations

import numpy as np

from .hypercomplex import ImaginaryUnit, Quaternion, star_exp_on_slice

CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def qconst(q: Quaternion) -> np.ndarray:
    return np.array([q.w, q.x, q.y, q.z])


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


def embed_complex(re: np.ndarray, im: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """Embed x + i*y arrays as quaternions x + unit*y."""
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    return np.stack([re, unit.x * im, unit.y * im, unit.z * im], axis=-1)


def embed_complex_arr(z: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return embed_complex(z.real, z.imag, unit)


def horner_slice(coeffs, x: np.ndarray, y: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """Evaluate sum_n q^n a_n over the slice grid q = x + unit*y.

    ``coeffs`` is a sequence of Quaternion; powers of q multiply from the
    left, so the Horner recursion is acc <- a_n + q * acc.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qg = embed_complex(x, y, unit)
    acc = np.broadcast_to(qconst(coeffs[-1]), qg.shape).copy()
    for a in reversed(coeffs[:-1]):
        acc = qmul(qg, acc)
        acc += qconst(a)
    return acc


def star_exp_grid(nu: float, x: np.ndarray, y: np.ndarray, unit: ImaginaryUnit,
                  p: Quaternion) -> np.ndarray:
    """Star exponential sum_n nu^n q^n conj(p)^n / n! over the slice grid
    q = x + unit*y, in closed form (see ``hypercomplex.star_exp_on_slice``)."""
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    return np.stack(star_exp_on_slice(nu, z, unit, p), axis=-1)
