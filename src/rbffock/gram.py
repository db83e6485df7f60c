"""Kernel Gram matrices and positive-semidefiniteness certification.

Complex and real Grams go straight to a Hermitian eigensolve.  Quaternionic
Grams are certified through the complex adjoint representation: each entry
a + b*j (a, b in C_i) becomes the 2x2 complex block [[a, b], [-conj(b),
conj(a)]], an algebra homomorphism that doubles the size, preserves
Hermitian structure, and doubles eigenvalue multiplicities.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .hypercomplex import Quaternion
from .kernels import rbf_kernel_qslice

__all__ = [
    "GRAM_KERNELS",
    "GramMatrix",
    "PsdReport",
    "build_gram",
    "psd_check",
    "quat_matrix_to_complex",
]

GRAM_KERNELS = ("rbf-real", "rbf-complex", "fock", "rbf-qslice",
                "polynomial", "exponential")

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


def _hermitize(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + np.conj(g.T))


def build_gram(kernel_id: str, params: dict, points) -> GramMatrix:
    """Assemble G[a][b] = k(points[a], points[b]) and store it Hermitian.

    Point layout per kernel: real kernels take (N, dim) floats,
    complex/Fock kernels take (N, dim) complex, and "rbf-qslice" takes a
    sequence of Quaternion.
    """
    if kernel_id not in GRAM_KERNELS:
        raise ValueError(f"unknown kernel {kernel_id!r}; choose from {GRAM_KERNELS}")

    if kernel_id == "rbf-qslice":
        gamma = float(params["gamma"])
        pts = list(points)
        if not all(isinstance(p, Quaternion) for p in pts):
            raise TypeError("rbf-qslice expects Quaternion points")
        n = len(pts)
        g = np.empty((n, n, 4))
        for a in range(n):
            for b in range(n):
                v = rbf_kernel_qslice(gamma, pts[a], pts[b])
                g[a, b] = (v.w, v.x, v.y, v.z)
        signs = np.array([1.0, -1.0, -1.0, -1.0])
        sym = 0.5 * (g + signs * g.transpose(1, 0, 2))
        flat = np.stack([p.to_list() for p in pts])
        return GramMatrix(sym, kernel_id, dict(params), _hash_points(flat))

    if kernel_id in ("rbf-complex", "fock"):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        if kernel_id == "rbf-complex":
            gamma = float(params["gamma"])
            diff = pts[:, None, :] - np.conj(pts[None, :, :])
            g = np.exp(-np.sum(diff * diff, axis=-1) / (gamma * gamma))
        else:
            alpha = float(params["alpha"])
            pair = np.einsum("ad,bd->ab", pts, np.conj(pts))
            g = np.exp(alpha * pair)
        return GramMatrix(_hermitize(g), kernel_id, dict(params),
                          _hash_points(pts.view(float)))

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if kernel_id == "rbf-real":
        gamma = float(params["gamma"])
        diff = pts[:, None, :] - pts[None, :, :]
        g = np.exp(-np.sum(diff * diff, axis=-1) / (gamma * gamma))
    elif kernel_id == "polynomial":
        degree = int(params["degree"])
        if degree < 1:
            raise ValueError("polynomial degree must be at least 1")
        g = (1.0 + pts @ pts.T) ** degree
    else:
        g = np.exp(pts @ pts.T)
    return GramMatrix(0.5 * (g + g.T), kernel_id, dict(params), _hash_points(pts))


def quat_matrix_to_complex(q: np.ndarray) -> np.ndarray:
    """Complex adjoint representation of an (N, N, 4) quaternion matrix.

    chi(a + b*j) = [[a, b], [-conj(b), conj(a)]] blockwise; chi(PQ) =
    chi(P) chi(Q) and chi(Q)^H = chi(Q) iff Q is quaternion-Hermitian.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 3 or q.shape[2] != 4 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square quaternion matrix of shape (N, N, 4)")
    a = q[..., 0] + 1j * q[..., 1]
    b = q[..., 2] + 1j * q[..., 3]
    return np.block([[a, b], [-np.conj(b), np.conj(a)]])


def psd_check(gram: GramMatrix, tol: float | None = None) -> PsdReport:
    """Certify positive semidefiniteness via a Hermitian eigensolve.

    ``tol`` defaults to size * machine-epsilon * max|G|.  Raises if the
    stored matrix is not Hermitian to HERMITIAN_TOL (scaled), which cannot
    happen for matrices built by build_gram.
    """
    g = gram.entries
    if gram.is_quaternionic:
        signs = np.array([1.0, -1.0, -1.0, -1.0])
        herm_dev = float(np.max(np.abs(g - signs * np.transpose(g, (1, 0, 2)))))
        mat = quat_matrix_to_complex(g)
    else:
        mat = np.asarray(g, dtype=complex)
        herm_dev = float(np.max(np.abs(mat - np.conj(mat.T))))
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
