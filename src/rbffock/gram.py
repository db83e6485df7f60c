"""Kernel Gram matrices and positive-semidefiniteness certification.

Complex Grams go straight to a Hermitian eigensolve, and real Grams to a
real symmetric one without a cast to complex.  Quaternionic Grams are
certified through the complex adjoint representation: each entry a + b*j
(a, b in C_i) becomes the 2x2 complex block [[a, b], [-conj(b), conj(a)]],
an algebra homomorphism that doubles the size, preserves Hermitian
structure, and doubles eigenvalue multiplicities.

The quaternionic slice RBF kernel is the reproducing kernel of a slice
Fock space, so K(p, q) = conj(K(q, p)): its Gram takes one scalar kernel
call per unordered pair and fills the lower triangle by conjugation.

Every Gram is stored exactly Hermitian, and psd_check relies on it: its
eigensolve reads one triangle, so it certifies the matrix that is stored
and written.  The CLI's CSV writer formats every entry as stored and does
not rely on the symmetry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import _quatarray as qa
from ._checks import finite_values
from .hypercomplex import I_DEFAULT, Quaternion
from .kernels import KERNELS

__all__ = [
    "GRAM_KERNELS",
    "GramMatrix",
    "PsdReport",
    "build_gram",
    "psd_check",
    "quat_matrix_to_complex",
]

GRAM_KERNELS = tuple(KERNELS)

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel values over a point set, stored exactly Hermitian.

    ``entries`` is (N, N) float/complex, or (N, N, 4) for quaternion-valued
    kernels.
    """

    entries: np.ndarray
    kernel_id: str
    params: dict = field(default_factory=dict)
    points_hash: str = ""

    @property
    def is_quaternionic(self) -> bool:
        return self.entries.ndim == 3

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    tol: float
    psd: bool
    size: int


def _hash_points(arr: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(list(arr.shape)).encode())
    digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def _adjoint(g: np.ndarray) -> np.ndarray:
    """Conjugate transpose; (N, N, 4) quaternion entries conjugate by sign."""
    if g.ndim == 3:
        return qa.qconj(g.transpose(1, 0, 2))
    return np.conj(g.T)


def build_gram(kernel_id: str, params: dict, points) -> GramMatrix:
    """Assemble G[a][b] = k(points[a], points[b]) and store it Hermitian.

    Points follow the kernel's layout in ``KERNELS``: (N, dim) floats or
    complex numbers, or a sequence of Quaternion.  Array kernels take one
    call on all pairs, and G is the average of that matrix and its adjoint.
    The quaternionic kernel is called once per unordered pair, for b >= a:
    G[a][b] is exactly k(points[a], points[b]) above the diagonal, its
    quaternion conjugate below, and its real part on the diagonal.  Raises
    ValueError for an empty point set, and OverflowError when an entry is
    not finite.
    """
    if kernel_id not in GRAM_KERNELS:
        raise ValueError(f"unknown kernel {kernel_id!r}; choose from {GRAM_KERNELS}")
    if len(points) == 0:
        raise ValueError("points must hold at least one point")
    spec = KERNELS[kernel_id]
    if spec.layout is Quaternion:
        pts = list(points)
        if not all(isinstance(p, Quaternion) for p in pts):
            raise TypeError(f"{kernel_id} expects Quaternion points")
        n = len(pts)
        # one call per unordered pair: K(p, q) = conj(K(q, p))
        g = np.zeros((n, n, 4))
        for a, q in enumerate(pts):
            g[a, a:] = [spec(params, q, p).to_list() for p in pts[a:]]
        upper = np.triu(np.ones((n, n), dtype=bool))[..., None]
        g = np.where(upper, g, _adjoint(g))
        pts = np.array([p.to_list() for p in pts], dtype=float).reshape(n, 4)
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=spec.layout))
        g = spec(params, pts[:, None], pts[None, :])
    # halving the sum of two finite entries can still overflow
    sym = finite_values(f"the {kernel_id} Gram", lambda: 0.5 * (g + _adjoint(g)))
    return GramMatrix(sym, kernel_id, dict(params), _hash_points(pts.view(float)))


def quat_matrix_to_complex(q: np.ndarray) -> np.ndarray:
    """Complex adjoint representation of an (N, N, 4) quaternion matrix.

    chi(a + b*j) = [[a, b], [-conj(b), conj(a)]] blockwise; chi(PQ) =
    chi(P) chi(Q) and chi(Q)^H = chi(Q) iff Q is quaternion-Hermitian.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 3 or q.shape[2] != 4 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square quaternion matrix of shape (N, N, 4)")
    a, b = qa.split_pair(q, I_DEFAULT)
    return np.block([[a, b], [-np.conj(b), np.conj(a)]])


def psd_check(gram: GramMatrix, tol: float | None = None) -> PsdReport:
    """Certify positive semidefiniteness via a Hermitian eigensolve.

    ``tol`` defaults to size * machine-epsilon * max|G|.  Raises if the
    stored matrix is not Hermitian to HERMITIAN_TOL (scaled), which cannot
    happen for matrices built by build_gram.
    """
    g = gram.entries
    herm_dev = float(np.max(np.abs(g - _adjoint(g))))
    # real Grams take a real symmetric solve, complex ones a Hermitian one
    mat = quat_matrix_to_complex(g) if gram.is_quaternionic else g
    scale = float(np.max(np.abs(mat))) or 1.0
    if herm_dev > HERMITIAN_TOL * max(1.0, scale):
        raise ValueError(f"matrix is not Hermitian: deviation {herm_dev:.3e}")
    if tol is None:
        tol = gram.size * np.finfo(float).eps * scale
    tol = float(tol)
    eigs = np.linalg.eigvalsh(mat)
    min_eig = float(eigs[0])
    return PsdReport(min_eigenvalue=min_eig, tol=tol,
                     psd=bool(min_eig >= -tol), size=gram.size)
