"""Property-verification suite: every structural identity of the kernels,
bases, spaces, and transforms, checked numerically at pinned tolerances.

Each criterion compares two independent computational routes (closed form
vs. series, quadrature vs. exact coefficients, two different slices, two
closed forms from different weights, ...)
and reports the worst deviation against its bound; np.maximum keeps a NaN
deviation, which max() would drop, so that it fails.  ``run_all`` is what
the ``rbffock verify`` CLI executes; it needs no input files and is fully
deterministic for a given seed.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from ._checks import finite_values, nu_from_gamma
from .bases import (hermite_psi_all, rbf_basis_q, rbf_basis_series,
                    rbf_basis_series_d)
from .gram import build_gram, psd_check, quat_matrix_to_complex
from .hypercomplex import (ImaginaryUnit, Quaternion, embed_in_slice,
                           intrinsic_exp_sq)
from .kernels import (NORMALIZATIONS, fock_kernel_d, kernel_sum_tail_bound,
                      kernel_sum_truncated, rbf_kernel_c, rbf_kernel_d,
                      rbf_kernel_qslice)
from .quadrature import DEFAULT_QUAD_ORDER
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     beta_coeffs, multi_indices, sequential_norm)
from .spaces import (FockCSpace, FockSliceSpace, RBFCSpace, RBFSliceSpace,
                     exact_grid)
from .transforms import (HermiteCoeffFunction, HermiteCoeffFunctionD,
                         hermite_basis_l2, rbf_sb_image_series,
                         rbf_sb_image_series_d, rbf_sb_kernel,
                         rbf_sb_transform, sb_kernel)

__all__ = ["VerifyConfig", "CheckResult", "CRITERIA", "reads",
           "run_criterion", "run_all"]

UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_IJ = ImaginaryUnit.from_vector(1.0, 1.0, 0.0)
DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class VerifyConfig:
    gamma: float = 1.0
    quad_order: int = DEFAULT_QUAD_ORDER
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        nu_from_gamma(self.gamma)


@dataclass(frozen=True)
class CheckResult:
    check: str
    params: dict
    value: float
    bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    @property
    def passed(self) -> bool:
        """The value is at or below its pinned bound; a NaN value fails."""
        return bool(self.value <= self.bound)

    def to_json(self) -> dict:
        """JSON-ready fields; a non-finite value becomes None (null)."""
        value = self.value if math.isfinite(self.value) else None
        return {**asdict(self), "value": value, "pass": self.passed}


def _random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(scale * rng.uniform(-1.0, 1.0, 4)).tolist())


def _qseries(rows: np.ndarray) -> QPowerSeries:
    """The series whose coefficients are the rows (w, x, y, z) of an array."""
    return QPowerSeries(tuple(Quaternion(*row) for row in rows.tolist()))


def _random_qseries(rng, degree: int) -> QPowerSeries:
    """Coefficients uniform in [-1, 1]^4, from one draw; numpy fills the
    array in order, so the stream is that of one 4-draw per coefficient."""
    return _qseries(rng.uniform(-1.0, 1.0, (degree + 1, 4)))


# ---------------------------------------------------------------------------
# criteria

def crit_fock_orthogonality(quad_order) -> list[CheckResult]:
    """<q^m, q^n> = delta_{mn} m!/nu^m, m, n <= 12, three Gaussian scales:
    the closed-form Gram against the one on the smallest grid exact for
    degree 24 (``exact_grid``, of order 13), which ``quad_order`` caps; no
    two scales differ by a power of 4, under which both routes scale exactly."""
    out = []
    monos = [QPowerSeries.monomial(n) for n in range(13)]
    for nu in (0.5, 3.0, 10.0):
        space = FockSliceSpace(nu, UNIT_I)
        grid = exact_grid(24, quad_order, nu)
        values = np.array([f.eval_slice_grid(grid.z, UNIT_I) for f in monos])
        gram = space.gram(monos)
        norms = np.diagonal(gram[..., 0])
        scale = np.sqrt(norms[:, None] * norms[None, :])
        dev = np.sqrt(np.sum((gram - space._grid_pair(grid, values, values)) ** 2,
                             axis=-1)) / scale
        out.append(CheckResult("fock-monomial-orthogonality", {"nu": nu},
                                float(dev.max()), 1e-10))
    return out


def crit_rbf_orthonormality() -> list[CheckResult]:
    """13x13 basis Gram = identity on a slice and on C^2; with real
    coefficients, the slice's unit and C^1 would repeat the slice's bits."""
    out = []
    eye = np.eye(13)[..., None] * [1.0, 0.0, 0.0, 0.0]
    indices = list(multi_indices(2, 4))[:13]
    for gamma in (0.5, 1.0, 2.0):
        basis = [rbf_basis_series(gamma, n) for n in range(13)]
        gram = RBFSliceSpace(gamma, UNIT_I).gram(basis)
        dev = float(np.sqrt(np.sum((gram - eye) ** 2, axis=-1)).max())
        out.append(CheckResult("rbf-basis-orthonormality",
                                {"gamma": gamma, "domain": "slice"}, dev, 1e-8))
        basis_d = [rbf_basis_series_d(gamma, idx) for idx in indices]
        gram = RBFCSpace(gamma, 2).gram(basis_d)
        dev = float(np.abs(gram - np.eye(13)).max())
        out.append(CheckResult("rbf-basis-orthonormality",
                                {"gamma": gamma, "domain": "C^2"}, dev, 1e-8))
    return out


def crit_isometry(seed, quad_order) -> list[CheckResult]:
    """Envelope-stripping map preserves norms: Fock route vs direct weight,
    100 draws of degree 24, trial k at gamma = gammas[k % 3], one batch
    per gamma (the Gram's diagonal; the direct-weight engine)."""
    rng = np.random.default_rng(seed)
    gammas = (0.5, 1.0, 2.0)
    draws = rng.uniform(-1.0, 1.0, (100, 25, 4))
    worst = 0.0
    for start, gamma in enumerate(gammas):
        fs = [GaussSeries(gamma, _qseries(rows)) for rows in draws[start::3]]
        space = RBFSliceSpace(gamma, UNIT_I, quad_order)
        fock_route = np.diagonal(space.gram(fs)[..., 0])
        direct_route = space._direct_pairs(fs, fs)[:, 0]
        worst = np.maximum(worst, np.max(np.abs(fock_route - direct_route)
                                         / np.abs(fock_route)))
    return [CheckResult("m-operator-isometry", {"trials": 100, "degree": 24},
                         worst, 1e-10)]


def _worst_reproduce(space, draws) -> float:
    """Worst |<f, K_w> - f(w)| / (1 + |f(w)|) over the draws (f, w), or NaN."""
    return np.max([abs(got - value) / (1.0 + abs(value)) for got, value in
                   ((space.reproduce(f, w), f.eval(w)) for f, w in draws)])


def crit_reproduce(gamma, seed, quad_order) -> list[CheckResult]:
    """<f, K_w> recovers f(w) in all four space families."""
    rng = np.random.default_rng(seed + 1)
    indices = list(multi_indices(2, 3))

    # 20 draws (series, point) each, taken from rng lazily, check by check
    def slice_draws(member):
        for _ in range(20):
            f = member(_random_qseries(rng, 8))
            yield f, _random_quaternion(rng, 0.8)

    def c2_draws(member):
        for _ in range(20):
            f = member(CPowerSeries(2, tuple(
                (idx, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for idx in indices)))
            yield f, tuple(complex(rng.uniform(-0.8, 0.8),
                                   rng.uniform(-0.8, 0.8)) for _ in range(2))

    checks = [
        ({"space": "fock-slice"}, FockSliceSpace(2.0, UNIT_I, quad_order),
         slice_draws(lambda series: series)),
        ({"space": "rbf-slice", "gamma": gamma},
         RBFSliceSpace(gamma, UNIT_I, quad_order),
         slice_draws(lambda series: GaussSeries(gamma, series))),
        ({"space": "fock-C2"}, FockCSpace(2.0, 2, 32),
         c2_draws(lambda series: series)),
        ({"space": "rbf-C2", "gamma": gamma}, RBFCSpace(gamma, 2, 32),
         c2_draws(lambda series: GaussCSeries(gamma, series))),
    ]
    return [CheckResult("reproducing-property", params,
                         _worst_reproduce(space, draws), 1e-7)
            for params, space, draws in checks]


def crit_kernel_sum(gamma, seed) -> list[CheckResult]:
    """Basis expansion of the quaternionic kernel, truncated at N = 40."""
    rng = np.random.default_rng(seed + 2)
    worst_abs = 0.0
    worst_vs_bound = 0.0
    for _ in range(20):
        q = _random_quaternion(rng)
        p = _random_quaternion(rng)
        q = q * (rng.uniform(0.2, 1.5) / max(abs(q), 1e-12))
        p = p * (rng.uniform(0.2, 1.5) / max(abs(p), 1e-12))
        kernel = rbf_kernel_qslice(gamma, q, p)
        diff = abs(kernel_sum_truncated(gamma, q, p, 40) - kernel)
        bound = kernel_sum_tail_bound(gamma, q, p, 40)
        worst_abs = np.maximum(worst_abs, diff)
        # the analytic tail binds only above the rounding floor of the
        # two evaluation routes
        floor = 1e-13 * (1.0 + abs(kernel))
        worst_vs_bound = np.maximum(worst_vs_bound, diff / max(bound, floor))
    return [CheckResult("kernel-sum-truncation", {"gamma": gamma, "terms": 40},
                        worst_abs, 1e-10),
            CheckResult("kernel-sum-within-tail-bound",
                        {"gamma": gamma, "terms": 40}, worst_vs_bound, 1.0)]


def _bound_ratio(gamma, f: GaussSeries, points) -> float:
    """The largest |f(q)| / (exp(2y^2/gamma^2) ||f||) over the complex
    points z = x + iy, q = x + yI, ||f|| in closed form; above 1, or NaN,
    violates the bound."""
    norm = math.sqrt(RBFSliceSpace(gamma, UNIT_I).norm_sq(f))
    ratio = 0.0
    for z in points:
        q = embed_in_slice(z, UNIT_I)
        bound = finite_values("the pointwise bound", lambda: math.exp(
            2.0 * z.imag * z.imag / (gamma * gamma)) * norm, q, numpy=False,
            gamma=gamma)
        ratio = np.maximum(ratio, abs(f.eval(q)) / bound)
    return ratio


def crit_diagonal_and_bound(gamma, seed) -> list[CheckResult]:
    """Diagonal K(q,q) = exp(4y^2/g^2); |f(q)| <= exp(2y^2/g^2) ||f||."""
    rng = np.random.default_rng(seed + 3)
    grid = [complex(x, y) for x in np.linspace(-2.0, 2.0, 7)
            for y in np.linspace(-2.0, 2.0, 7)]
    worst = 0.0
    for unit in (UNIT_I, UNIT_IJ):
        for z in grid:
            q = embed_in_slice(z, unit)
            k = rbf_kernel_qslice(gamma, q, q)
            expected = math.exp(4.0 * z.imag * z.imag / (gamma * gamma))
            worst = np.maximum(worst, abs(k - Quaternion.from_real(expected)) / expected)
    results = [CheckResult("kernel-diagonal-identity", {"gamma": gamma},
                            worst, 1e-10)]

    worst_ratio = 0.0
    for _ in range(5):
        f = GaussSeries(gamma, _random_qseries(rng, 6))
        worst_ratio = np.maximum(worst_ratio, _bound_ratio(gamma, f, grid))
    results.append(CheckResult("pointwise-bound", {"gamma": gamma},
                                worst_ratio - 1.0, 1e-9))
    return results


def crit_sequential(seed) -> list[CheckResult]:
    """The RBF norm by two closed forms, the beta-mapped Taylor weights
    against the Fock weights (the report keeps the check's name
    sequential-norm-vs-quadrature); beta map vs convolution."""
    rng = np.random.default_rng(seed + 4)
    gammas = (1.0, 2.0, 0.8)
    fock_parts = [_random_qseries(rng, 16) for _ in range(50)]
    worst_norm = 0.0
    # trial k at gamma = gammas[k % 3], the Fock route one Gram per gamma
    for start, gamma in enumerate(gammas):
        parts = fock_parts[start::3]
        fock = np.diagonal(RBFSliceSpace(gamma, UNIT_I).gram(
            [GaussSeries(gamma, part) for part in parts])[..., 0])
        seq = np.array([sequential_norm(gamma, beta_coeffs(
            gamma, part.coeffs, 32, sign=-1), 32) for part in parts])
        worst_norm = np.maximum(worst_norm, np.max(np.abs(seq - fock)
                                                   / np.abs(fock)))

    worst_beta = 0.0
    for _ in range(10):
        gamma = 1.0 + rng.uniform(-0.3, 0.8)
        a = _random_qseries(rng, 24).coeffs
        betas = beta_coeffs(gamma, a, 24)
        # brute-force Cauchy product against the explicit exponential series
        for k in range(25):
            acc = Quaternion(0, 0, 0, 0)
            for j in range(0, k + 1, 2):
                s = 1.0 / (gamma ** j * math.factorial(j // 2))
                acc = acc + a[k - j] * s
            worst_beta = np.maximum(worst_beta, abs(betas[k] - acc))
    return [CheckResult("sequential-norm-vs-quadrature", {"trials": 50},
                        worst_norm, 1e-6),
            CheckResult("beta-vs-cauchy-product", {"trials": 10}, worst_beta,
                        1e-13)]


def crit_factorizations(gamma, seed) -> list[CheckResult]:
    """Product and Fock factorizations of the C^d kernel, d = 3."""
    rng = np.random.default_rng(seed + 5)
    nu = nu_from_gamma(gamma)
    worst_prod = 0.0
    worst_fock = 0.0
    for _ in range(10):
        z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        w = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        kd = rbf_kernel_d(gamma, z, w)
        prod = np.prod([rbf_kernel_c(gamma, z[l], w[l]) for l in range(3)])
        worst_prod = np.maximum(worst_prod, abs(kd - prod) / abs(kd))
        env = np.exp(-(np.sum(z * z) + np.sum(np.conj(w) ** 2)) / gamma ** 2)
        fock = env * fock_kernel_d(nu, z, w)
        worst_fock = np.maximum(worst_fock, abs(kd - fock) / abs(kd))
    return [CheckResult("kernel-product-factorization", {"gamma": gamma, "dim": 3},
                        worst_prod, 1e-14),
            CheckResult("kernel-fock-factorization", {"gamma": gamma, "dim": 3},
                        worst_fock, 1e-14)]


def _l2_gram(coeffs) -> list:
    """L[a][b] = sum_n conj(d_n) c_n, c = coeffs[a], d = coeffs[b]: the L^2
    Gram of Hermite expansions, in scalar complex or Quaternion arithmetic."""
    return [[sum(d.conjugate() * c for c, d in zip(f, g)) for g in coeffs]
            for f in coeffs]


def crit_sb_unitarity(gamma, seed, quad_order) -> list[CheckResult]:
    """The transform is unitary, or sqrt(nu/pi) times unitary under the
    literal convention: the Gram of the exact images of 8 random Hermite
    expansions (degree 10 on a slice, total degree 4 on C^2) against their
    L^2 Gram, relative to ||phi_a|| ||phi_b||; and the quadrature transform
    matches the exact images under both conventions on the same draws."""
    rng = np.random.default_rng(seed + 6)
    nu = nu_from_gamma(gamma)

    # independent route: quadrature transform matches the exact images
    worst = 0.0
    for n in (0, 3, 7):
        phi = hermite_basis_l2(nu, n)
        for _ in range(3):
            q = _random_quaternion(rng)
            worst = np.maximum(worst, [abs(
                rbf_sb_transform(gamma, phi, q, norm, method="quadrature",
                                 quad_order=quad_order)
                - rbf_sb_image_series(gamma, phi, norm).eval(q))
                for norm in NORMALIZATIONS])

    out = []
    phis = [HermiteCoeffFunction(nu, _random_qseries(rng, 10).coeffs)
            for _ in range(8)]
    l2 = np.array([[v.to_list() for v in row]
                   for row in _l2_gram([phi.coeffs for phi in phis])])
    norms = np.sqrt(np.diagonal(l2[..., 0]))
    for norm in NORMALIZATIONS:
        factor = 1.0 if norm == "unitary" else nu / math.pi
        gram = RBFSliceSpace(gamma, UNIT_I).gram(
            [rbf_sb_image_series(gamma, phi, norm) for phi in phis])
        dev = np.sqrt(np.sum((gram / factor - l2) ** 2, axis=-1))
        out.append(CheckResult("sb-unitarity", {
            "domain": "quaternionic", "normalization": norm,
            "norm_offset": math.sqrt(factor), "functions": 8, "degree": 10},
            np.max(dev / np.outer(norms, norms)), 1e-8))

    phis = [HermiteCoeffFunctionD(nu, 2, tuple(
        (idx, complex(*rng.uniform(-1.0, 1.0, 2))) for idx in multi_indices(2, 4)))
        for _ in range(8)]
    l2 = np.array(_l2_gram([[c for _, c in phi.terms] for phi in phis]))
    norms = np.sqrt(np.diagonal(l2).real)
    dev = np.abs(RBFCSpace(gamma, 2).gram(
        [rbf_sb_image_series_d(gamma, phi) for phi in phis]) - l2)
    out.append(CheckResult("sb-unitarity",
                           {"domain": "C^2", "functions": 8, "degree": 4},
                           np.max(dev / np.outer(norms, norms)), 1e-8))
    return out + [CheckResult("sb-quadrature-vs-exact",
                              {"domain": "quaternionic", "normalization": norm},
                              dev, 1e-9)
                  for norm, dev in zip(NORMALIZATIONS, worst)]


def crit_sb_kernel_match(gamma, seed) -> list[CheckResult]:
    """Closed RBF transform kernel vs envelope times Fock kernel, under both
    conventions, and vs its generating series truncated at N = 40."""
    rng = np.random.default_rng(seed + 7)
    nu = nu_from_gamma(gamma)
    worst_match = 0.0
    for _ in range(20):
        q = _random_quaternion(rng, 1.2)
        x = rng.uniform(-2.0, 2.0)
        envelope = intrinsic_exp_sq(gamma, q)
        lhs = [rbf_sb_kernel(gamma, q, x, norm) for norm in NORMALIZATIONS]
        rhs = [envelope * sb_kernel(nu, q, x, norm) for norm in NORMALIZATIONS]
        worst_match = np.maximum(worst_match, [abs(a - b) / (1.0 + abs(a))
                                               for a, b in zip(lhs, rhs)])

    worst_series = 0.0
    for _ in range(10):
        q = _random_quaternion(rng)
        q = q * (rng.uniform(0.2, 1.5) / max(abs(q), 1e-12))
        x = rng.uniform(-2.0, 2.0)
        psi = hermite_psi_all(nu, 40, x).tolist()
        acc = Quaternion(0, 0, 0, 0)
        for n in range(41):
            acc = acc + rbf_basis_q(gamma, n, q) * psi[n]
        closed = rbf_sb_kernel(gamma, q, x, "unitary")
        worst_series = np.maximum(worst_series, abs(acc - closed))
    return [*(CheckResult("rbf-sb-kernel-envelope-match",
                           {"gamma": gamma, "normalization": norm}, dev, 1e-13)
              for norm, dev in zip(NORMALIZATIONS, worst_match)),
            CheckResult("rbf-sb-kernel-series", {"gamma": gamma, "terms": 40},
                         worst_series, 1e-9)]


def crit_slice_independence(gamma, seed, quad_order) -> list[CheckResult]:
    """RBF norms agree on C_i (closed form) and C_{(i+j)/sqrt2} (direct)."""
    rng = np.random.default_rng(seed + 8)
    worst = 0.0
    for _ in range(20):
        f = GaussSeries(gamma, _random_qseries(rng, 12))
        a = RBFSliceSpace(gamma, UNIT_I).norm_sq(f)
        b = RBFSliceSpace(gamma, UNIT_IJ, quad_order).inner_product_direct(f, f).w
        worst = np.maximum(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return [CheckResult("slice-independence", {"gamma": gamma, "trials": 20},
                         worst, 1e-10)]


def crit_psd(seed) -> list[CheckResult]:
    """Real Gaussian Gram is PSD; adjoint representation is a homomorphism."""
    rng = np.random.default_rng(seed + 9)
    pts = rng.uniform(-1.5, 1.5, (16, 3))
    min_eig = psd_check(build_gram("rbf-real", {"gamma": 1.0}, pts)).min_eigenvalue
    out = [CheckResult("gaussian-gram-psd", {"points": 16, "dim": 3},
                       np.maximum(0.0, -min_eig), 1e-10)]

    worst = 0.0
    for _ in range(5):
        pmat = rng.uniform(-1, 1, (2, 2, 4))
        qmat = rng.uniform(-1, 1, (2, 2, 4))
        # scalar-quaternion matrix product as the oracle
        prod = np.zeros((2, 2, 4))
        for a in range(2):
            for b in range(2):
                acc = Quaternion(0, 0, 0, 0)
                for c in range(2):
                    acc = acc + Quaternion(*pmat[a, c]) * Quaternion(*qmat[c, b])
                prod[a, b] = acc.to_list()
        lhs = quat_matrix_to_complex(prod)
        rhs = quat_matrix_to_complex(pmat) @ quat_matrix_to_complex(qmat)
        worst = np.maximum(worst, float(np.abs(lhs - rhs).max()))
    out.append(CheckResult("adjoint-representation-homomorphism", {"trials": 5},
                            worst, 1e-13))
    return out


# name -> (description, criterion taking the settings it reads)
CRITERIA: dict[str, tuple[str, Callable[..., list[CheckResult]]]] = {
    "fock-orthogonality": ("Fock monomial orthogonality", crit_fock_orthogonality),
    "rbf-orthonormality": ("RBF basis orthonormality", crit_rbf_orthonormality),
    "isometry": ("envelope-map isometry", crit_isometry),
    "reproduce": ("reproducing property", crit_reproduce),
    "kernel-sum": ("kernel basis-sum truncation", crit_kernel_sum),
    "diagonal-bound": ("diagonal identity and pointwise bound",
                       crit_diagonal_and_bound),
    "sequential": ("sequential norm characterization", crit_sequential),
    "factorizations": ("product/Fock kernel factorizations", crit_factorizations),
    "sb-unitarity": ("Segal-Bargmann unitarity", crit_sb_unitarity),
    "sb-kernel-match": ("RBF-SB kernel identities", crit_sb_kernel_match),
    "slice-independence": ("slice independence of norms", crit_slice_independence),
    "psd": ("PSD certification and adjoint representation", crit_psd),
}


def reads(only: list[str] | None = None) -> list[str]:
    """The VerifyConfig fields, in order, that the selected criteria read."""
    read = {p for name in only or CRITERIA
            for p in inspect.signature(CRITERIA[name][1]).parameters}
    return [f.name for f in fields(VerifyConfig) if f.name in read]


def run_criterion(name: str, cfg: VerifyConfig | None = None) -> list[CheckResult]:
    cfg = cfg or VerifyConfig()
    return CRITERIA[name][1](**{p: getattr(cfg, p) for p in reads([name])})


def run_all(cfg: VerifyConfig | None = None,
            only: list[str] | None = None) -> list[CheckResult]:
    return [r for name in only or CRITERIA for r in run_criterion(name, cfg)]
