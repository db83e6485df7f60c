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

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ._checks import nu_from_gamma
from .bases import (hermite_psi_all, rbf_basis_q, rbf_basis_series,
                    rbf_basis_series_d)
from .gram import build_gram, psd_check, quat_matrix_to_complex
from .hypercomplex import (ImaginaryUnit, Quaternion, SlicePoint,
                           intrinsic_exp_sq)
from .kernels import (fock_kernel_d, kernel_sum_tail_bound,
                      kernel_sum_truncated, rbf_kernel_c, rbf_kernel_d,
                      rbf_kernel_qslice)
from .quadrature import DEFAULT_QUAD_ORDER, exact_order
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     beta_coeffs, multi_indices, sequential_norm)
from .spaces import (FockCSpace, FockSliceSpace, RBFCSpace, RBFSliceSpace,
                     pointwise_bound_check, slice_independence_check)
from .transforms import (HermiteCoeffFunctionD, hermite_basis_l2,
                         rbf_sb_image_series, rbf_sb_image_series_d,
                         rbf_sb_kernel, rbf_sb_transform, sb_kernel)

__all__ = ["VerifyConfig", "CheckResult", "CRITERIA", "run_criterion",
           "run_all"]

UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_IJ = ImaginaryUnit.from_vector(1.0, 1.0, 0.0)
DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class VerifyConfig:
    gamma: float = 1.0
    quad_order: int = DEFAULT_QUAD_ORDER
    normalization: str = "unitary"
    tol_scale: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        nu_from_gamma(self.gamma)


@dataclass(frozen=True)
class CheckResult:
    check: str
    params: dict
    value: float
    bound: float
    passed: bool

    def to_json(self) -> dict:
        """JSON-ready fields; a non-finite value becomes None (null)."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        if not math.isfinite(out["value"]):
            out["value"] = None
        return out


def _result(check: str, params: dict, value: float, bound: float,
            cfg: VerifyConfig) -> CheckResult:
    bound = bound * cfg.tol_scale
    return CheckResult(check=check, params=params, value=float(value),
                       bound=float(bound), passed=bool(value <= bound))


def _random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(scale * rng.uniform(-1.0, 1.0, 4)))


def _random_qseries(rng, degree: int) -> QPowerSeries:
    return QPowerSeries(tuple(_random_quaternion(rng) for _ in range(degree + 1)))


# ---------------------------------------------------------------------------
# criteria

def crit_fock_orthogonality(cfg: VerifyConfig) -> list[CheckResult]:
    """<q^m, q^n> = delta_{mn} m!/nu^m, m, n <= 12, three Gaussian scales:
    the closed-form Gram against the one on the smallest exact grid, of
    order 13, which ``quad_order`` caps."""
    exact_order(24, cfg.quad_order)
    out = []
    monos = [QPowerSeries.monomial(n) for n in range(13)]
    for nu in (0.5, 2.0, 8.0):
        space = FockSliceSpace(nu, UNIT_I, 13)
        values = np.array([f.eval_slice_grid(*space.grid[:2], UNIT_I) for f in monos])
        gram = space.gram(monos)
        norms = np.diagonal(gram[..., 0])
        scale = np.sqrt(norms[:, None] * norms[None, :])
        dev = np.sqrt(np.sum((gram - space._grid_pair(values, values)) ** 2,
                             axis=-1)) / scale
        out.append(_result("fock-monomial-orthogonality", {"nu": nu},
                           float(dev.max()), 1e-10, cfg))
    return out


def crit_rbf_orthonormality(cfg: VerifyConfig) -> list[CheckResult]:
    """13x13 basis Gram = identity: quaternionic on two slices, C^1, C^2."""
    out = []
    eye = np.zeros((13, 13, 4))
    eye[np.arange(13), np.arange(13), 0] = 1.0
    for gamma in (0.5, 1.0, 2.0):
        basis = [rbf_basis_series(gamma, n) for n in range(13)]
        for label, unit in (("slice-i", UNIT_I), ("slice-ij", UNIT_IJ)):
            gram = RBFSliceSpace(gamma, unit, cfg.quad_order).gram(basis)
            dev = float(np.sqrt(np.sum((gram - eye) ** 2, axis=-1)).max())
            out.append(_result("rbf-basis-orthonormality",
                               {"gamma": gamma, "domain": label}, dev, 1e-8, cfg))
        for dim in (1, 2):
            indices = list(multi_indices(dim, 12 if dim == 1 else 4))[:13]
            basis_d = [rbf_basis_series_d(gamma, idx) for idx in indices]
            gram = RBFCSpace(gamma, dim, 16).gram(basis_d)
            dev = float(np.abs(gram - np.eye(13)).max())
            out.append(_result("rbf-basis-orthonormality",
                               {"gamma": gamma, "domain": f"C^{dim}"},
                               dev, 1e-8, cfg))
    return out


def crit_isometry(cfg: VerifyConfig) -> list[CheckResult]:
    """Envelope-stripping map preserves norms: Fock route vs direct weight."""
    rng = np.random.default_rng(cfg.seed)
    gammas = (0.5, 1.0, 2.0)
    worst = 0.0
    for trial in range(100):
        gamma = gammas[trial % len(gammas)]
        f = GaussSeries(gamma, _random_qseries(rng, 24))
        space = RBFSliceSpace(gamma, UNIT_I, cfg.quad_order)
        fock_route = space.norm_sq(f)
        direct_route = space.inner_product_direct(f, f).w
        worst = np.maximum(worst, abs(fock_route - direct_route) / abs(fock_route))
    return [_result("m-operator-isometry", {"trials": 100, "degree": 24},
                    worst, 1e-10, cfg)]


def _worst_reproduce(space, draws) -> float:
    """Worst |<f, K_w> - f(w)| / (1 + |f(w)|) over the draws (f, w), or NaN."""
    return np.max([abs(space.reproduce(f, w) - f.eval(w)) / (1.0 + abs(f.eval(w)))
                   for f, w in draws])


def crit_reproduce(cfg: VerifyConfig) -> list[CheckResult]:
    """<f, K_w> recovers f(w) in all four space families."""
    rng = np.random.default_rng(cfg.seed + 1)
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
        ({"space": "fock-slice"}, FockSliceSpace(2.0, UNIT_I, cfg.quad_order),
         slice_draws(lambda series: series)),
        ({"space": "rbf-slice", "gamma": cfg.gamma},
         RBFSliceSpace(cfg.gamma, UNIT_I, cfg.quad_order),
         slice_draws(lambda series: GaussSeries(cfg.gamma, series))),
        ({"space": "fock-C2"}, FockCSpace(2.0, 2, 32),
         c2_draws(lambda series: series)),
        ({"space": "rbf-C2", "gamma": cfg.gamma}, RBFCSpace(cfg.gamma, 2, 32),
         c2_draws(lambda series: GaussCSeries(cfg.gamma, series))),
    ]
    return [_result("reproducing-property", params,
                    _worst_reproduce(space, draws), 1e-7, cfg)
            for params, space, draws in checks]


def crit_kernel_sum(cfg: VerifyConfig) -> list[CheckResult]:
    """Basis expansion of the quaternionic kernel, truncated at N = 40."""
    rng = np.random.default_rng(cfg.seed + 2)
    gamma = cfg.gamma
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
    return [
        _result("kernel-sum-truncation", {"gamma": gamma, "terms": 40},
                worst_abs, 1e-10, cfg),
        _result("kernel-sum-within-tail-bound", {"gamma": gamma, "terms": 40},
                worst_vs_bound, 1.0, cfg),
    ]


def crit_diagonal_and_bound(cfg: VerifyConfig) -> list[CheckResult]:
    """Diagonal K(q,q) = exp(4y^2/g^2); |f(q)| <= exp(2y^2/g^2) ||f||."""
    rng = np.random.default_rng(cfg.seed + 3)
    gamma = cfg.gamma
    grid = [(x, y) for x in np.linspace(-2.0, 2.0, 7)
            for y in np.linspace(-2.0, 2.0, 7)]
    worst = 0.0
    for unit in (UNIT_I, UNIT_IJ):
        for x, y in grid:
            q = SlicePoint(x, y, unit).to_quaternion()
            k = rbf_kernel_qslice(gamma, q, q)
            expected = math.exp(4.0 * y * y / (gamma * gamma))
            worst = np.maximum(worst, abs(k - Quaternion.from_real(expected)) / expected)
    results = [_result("kernel-diagonal-identity", {"gamma": gamma},
                       worst, 1e-10, cfg)]

    points = [SlicePoint(x, y, UNIT_I) for x, y in grid]
    worst_ratio = 0.0
    for _ in range(5):
        f = GaussSeries(gamma, _random_qseries(rng, 6))
        report = pointwise_bound_check(gamma, f, points, UNIT_I, cfg.quad_order)
        worst_ratio = np.maximum(worst_ratio, report.max_ratio)
    results.append(_result("pointwise-bound", {"gamma": gamma},
                           worst_ratio - 1.0, 1e-9, cfg))
    return results


def crit_sequential(cfg: VerifyConfig) -> list[CheckResult]:
    """The RBF norm by two closed forms, the beta-mapped Taylor weights
    against the Fock weights (the report keeps the check's name
    sequential-norm-vs-quadrature); beta map vs convolution."""
    rng = np.random.default_rng(cfg.seed + 4)
    gammas = (1.0, 2.0, 0.8)
    worst_norm = 0.0
    for trial in range(50):
        gamma = gammas[trial % len(gammas)]
        fock_part = _random_qseries(rng, 16)
        f = GaussSeries(gamma, fock_part)
        taylor = beta_coeffs(gamma, fock_part.coeffs, 32, sign=-1)
        seq = sequential_norm(gamma, taylor, 32)
        fock = RBFSliceSpace(gamma, UNIT_I, cfg.quad_order).norm_sq(f)
        worst_norm = np.maximum(worst_norm, abs(seq - fock) / abs(fock))

    worst_beta = 0.0
    for _ in range(10):
        gamma = 1.0 + rng.uniform(-0.3, 0.8)
        a = [_random_quaternion(rng) for _ in range(25)]
        betas = beta_coeffs(gamma, a, 24)
        # brute-force Cauchy product against the explicit exponential series
        for k in range(25):
            acc = Quaternion(0, 0, 0, 0)
            for j in range(0, k + 1, 2):
                s = 1.0 / (gamma ** j * math.factorial(j // 2))
                acc = acc + a[k - j] * s
            worst_beta = np.maximum(worst_beta, abs(betas[k] - acc))
    return [
        _result("sequential-norm-vs-quadrature", {"trials": 50},
                worst_norm, 1e-6, cfg),
        _result("beta-vs-cauchy-product", {"trials": 10}, worst_beta,
                1e-13, cfg),
    ]


def crit_factorizations(cfg: VerifyConfig) -> list[CheckResult]:
    """Product and Fock factorizations of the C^d kernel, d = 3."""
    rng = np.random.default_rng(cfg.seed + 5)
    gamma = cfg.gamma
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
    return [
        _result("kernel-product-factorization", {"gamma": gamma, "dim": 3},
                worst_prod, 1e-14, cfg),
        _result("kernel-fock-factorization", {"gamma": gamma, "dim": 3},
                worst_fock, 1e-14, cfg),
    ]


def crit_sb_unitarity(cfg: VerifyConfig) -> list[CheckResult]:
    """Transform images of the Hermite basis stay orthonormal (or shift by
    exactly sqrt(nu/pi) under the literal convention)."""
    rng = np.random.default_rng(cfg.seed + 6)
    gamma = cfg.gamma
    nu = nu_from_gamma(gamma)
    out = []

    images = [rbf_sb_image_series(gamma, hermite_basis_l2(nu, n),
                                  cfg.normalization) for n in range(11)]
    gram = RBFSliceSpace(gamma, UNIT_I, cfg.quad_order).gram(images)
    factor = 1.0 if cfg.normalization == "unitary" else nu / math.pi
    expected = np.zeros((11, 11, 4))
    expected[np.arange(11), np.arange(11), 0] = factor
    dev = float(np.sqrt(np.sum((gram - expected) ** 2, axis=-1)).max()) / factor
    out.append(_result("sb-unitarity", {"domain": "quaternionic",
                                        "normalization": cfg.normalization,
                                        "norm_offset": math.sqrt(factor)},
                       dev, 1e-8, cfg))

    indices = list(multi_indices(2, 4))
    images_d = [rbf_sb_image_series_d(
        gamma, HermiteCoeffFunctionD(nu, 2, ((idx, 1.0),)))
        for idx in indices]
    gram_d = RBFCSpace(gamma, 2, 16).gram(images_d)
    dev_d = float(np.abs(gram_d - np.eye(len(indices))).max())
    out.append(_result("sb-unitarity", {"domain": "C^2"}, dev_d, 1e-8, cfg))

    # independent route: quadrature transform matches the exact images
    worst = 0.0
    for n in (0, 3, 7):
        phi = hermite_basis_l2(nu, n)
        for _ in range(3):
            q = _random_quaternion(rng)
            via_quad = rbf_sb_transform(gamma, phi, q, cfg.normalization,
                                        method="quadrature",
                                        quad_order=cfg.quad_order)
            exact = rbf_sb_image_series(gamma, phi, cfg.normalization).eval(q)
            worst = np.maximum(worst, abs(via_quad - exact))
    out.append(_result("sb-quadrature-vs-exact", {"domain": "quaternionic"},
                       worst, 1e-9, cfg))
    return out


def crit_sb_kernel_match(cfg: VerifyConfig) -> list[CheckResult]:
    """Closed RBF transform kernel vs envelope times Fock kernel, and vs
    its generating series truncated at N = 40."""
    rng = np.random.default_rng(cfg.seed + 7)
    gamma = cfg.gamma
    nu = nu_from_gamma(gamma)
    worst_match = 0.0
    for _ in range(20):
        q = _random_quaternion(rng, 1.2)
        x = rng.uniform(-2.0, 2.0)
        lhs = rbf_sb_kernel(gamma, q, x, cfg.normalization)
        rhs = intrinsic_exp_sq(gamma, q) * sb_kernel(nu, q, x,
                                                     cfg.normalization)
        worst_match = np.maximum(worst_match, abs(lhs - rhs) / (1.0 + abs(lhs)))

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
    return [
        _result("rbf-sb-kernel-envelope-match",
                {"gamma": gamma, "normalization": cfg.normalization},
                worst_match, 1e-13, cfg),
        _result("rbf-sb-kernel-series", {"gamma": gamma, "terms": 40},
                worst_series, 1e-9, cfg),
    ]


def crit_slice_independence(cfg: VerifyConfig) -> list[CheckResult]:
    """RBF norms agree on C_i and C_{(i+j)/sqrt2} for random elements."""
    rng = np.random.default_rng(cfg.seed + 8)
    worst = 0.0
    for _ in range(20):
        f = GaussSeries(cfg.gamma, _random_qseries(rng, 12))
        rep = slice_independence_check(cfg.gamma, f, UNIT_I, UNIT_IJ,
                                       cfg.quad_order)
        worst = np.maximum(worst, rep.rel_diff)
    return [_result("slice-independence", {"gamma": cfg.gamma, "trials": 20},
                    worst, 1e-10, cfg)]


def crit_psd(cfg: VerifyConfig) -> list[CheckResult]:
    """Real Gaussian Gram is PSD; adjoint representation is a homomorphism."""
    rng = np.random.default_rng(cfg.seed + 9)
    pts = rng.uniform(-1.5, 1.5, (16, 3))
    gram = build_gram("rbf-real", {"gamma": 1.0}, pts)
    report = psd_check(gram, tol=1e-10)
    out = [_result("gaussian-gram-psd", {"points": 16, "dim": 3},
                   np.maximum(0.0, -report.min_eigenvalue), 1e-10, cfg)]

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
    out.append(_result("adjoint-representation-homomorphism", {"trials": 5},
                       worst, 1e-13, cfg))
    return out


CRITERIA: dict[str, tuple[str, Callable[[VerifyConfig], list[CheckResult]]]] = {
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


def run_criterion(name: str, cfg: VerifyConfig | None = None) -> list[CheckResult]:
    if name not in CRITERIA:
        raise KeyError(f"unknown criterion {name!r}")
    return CRITERIA[name][1](cfg or VerifyConfig())


def run_all(cfg: VerifyConfig | None = None,
            only: list[str] | None = None) -> list[CheckResult]:
    cfg = cfg or VerifyConfig()
    names = only or list(CRITERIA)
    results: list[CheckResult] = []
    for name in names:
        results.extend(run_criterion(name, cfg))
    return results
