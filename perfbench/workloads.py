"""Seeded inputs, fixed call lists and output checks for the workloads.

A workload is a list of ``Call``s: the rbffock CLI arguments of one call,
the files it writes, and a check that reads those files after the timed
passes.  ``build`` writes every JSON input under the given directory from
the seed alone; the program sees only these files and its arguments.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GAMMA = 1.0
QSLICE_SIZES = (16, 32, 64, 96)
DENSE_SIZE = 1000
TRANSFORM_DEGREE = 15
TRANSFORM_POINTS = 1000
TRANSFORM_D_POINTS = 200
TRANSFORM_D_TERMS = 16
SAMPLES = 6

# Entries of the quaternionic Gram are checked against the N = 40 basis sum:
# the analytic tail bound plus the rounding floor of the two routes (the
# floor verify's kernel-sum criterion uses).
KERNEL_SUM_TERMS = 40
ROUNDING_FLOOR = 1e-13
# Closed-form kernels against a direct cmath/math formula, relative.
DIRECT_REL_TOL = 1e-12
# Transform values against quadrature at the default and doubled order,
# relative to 1 + |value| (verify's sb-quadrature-vs-exact bound).
QUADRATURE_TOL = 1e-9

WORKLOADS = ("verify", "gram", "transform")

# spans (see tracer.py) that each workload exists to exercise; a traced run
# in which one of them never fires has lost a rebinding
EXPECTED_SPANS = {
    "verify": ("verify.reproduce", "verify.isometry", "spaces.FockCSpace",
               "spaces.FockSliceSpace",
               "spaces.RBFSliceSpace.inner_product_direct",
               "series.CPowerSeries.eval_points",
               "series.GaussSeries.eval_slice_grid", "quatarray.qmul",
               "quatarray.horner_slice", "quatarray.star_exp_grid"),
    "gram": ("cli.cmd_gram", "cli._write_lines", "cli._load_json",
             "gram.build_gram", "gram.psd_check", "gram.eigensolve",
             "kernels.rbf_kernel_qslice", "hypercomplex.star_exp"),
    "transform": ("cli._load_json", "cli._write_lines",
                  "quadrature.gauss_hermite", "quadrature.integrate_rd",
                  "quadrature.compensated_sum", "transforms.sb_transform",
                  "transforms.rbf_sb_transform_d", "quatarray.qmul"),
}


@dataclass
class Call:
    name: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], list[str]] = field(repr=False)


def build(workload: str, seed: int, inputs: Path) -> list[Call]:
    """Write the workload's inputs under ``inputs`` and return its calls.

    Output paths in ``argv`` and ``outputs`` are relative to the directory
    a pass runs in; input paths are absolute.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs.mkdir(parents=True, exist_ok=True)
    return {"verify": _verify_calls, "gram": _gram_calls,
            "transform": _transform_calls}[workload](rng, inputs)


# ---------------------------------------------------------------------------
# helpers

def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


class _Rows:
    """Data rows of a CSV file, parsed to floats on first access."""

    def __init__(self, path: Path):
        self._lines = path.read_text().splitlines()[1:]

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, i: int) -> list[float]:
        return [float(v) for v in self._lines[i].split(",")]


def _quaternions(rng, count: int, max_norm: float) -> np.ndarray:
    """Points spread over the 4-ball of radius ``max_norm``."""
    direction = rng.normal(size=(count, 4))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = max_norm * rng.uniform(0.05, 1.0, size=(count, 1))
    return direction * radius


def _pairs(rng, size: int) -> list[tuple[int, int]]:
    return [tuple(int(v) for v in rng.integers(0, size, 2))
            for _ in range(SAMPLES)]


def _close(got, want, tol: float) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# verify: the repository's own correctness gate, with its defaults

def _verify_calls(rng, inputs: Path) -> list[Call]:
    def check(run_dir: Path) -> list[str]:
        report = json.loads((run_dir / "verify.json").read_text())
        if report.get("passed") is not True:
            failed = [c["check"] for c in report["checks"] if not c["pass"]]
            return [f"verify report not passed: {failed}"]
        return []

    return [Call("verify", ["verify", "--report", "verify.json"],
                 ["verify.json"], check)]


def verify_worst_margin(run_dir: Path) -> float:
    """Largest value/bound over the verify report's checks."""
    report = json.loads((run_dir / "verify.json").read_text())
    return max(c["value"] / c["bound"] for c in report["checks"])


# ---------------------------------------------------------------------------
# gram: quaternionic slice kernel at growing N, then two dense kernels

def _gram_call(name: str, kernel: str, points: list, inputs: Path,
               entry_check: Callable[[_Rows, int, int], str | None],
               pairs: list[tuple[int, int]]) -> Call:
    src = _write_json(inputs / f"{name}.json",
                      {"kernel": kernel, "gamma": GAMMA, "points": points})
    csv_name, report_name = f"{name}.csv", f"{name}.report.json"

    def check(run_dir: Path) -> list[str]:
        problems = []
        report = json.loads((run_dir / report_name).read_text())
        if report.get("psd") is not True or report.get("size") != len(points):
            problems.append(f"{name}: report {report}")
        rows = _Rows(run_dir / csv_name)
        if len(rows) != len(points):
            problems.append(f"{name}: {len(rows)} CSV rows")
            return problems
        for a, b in pairs:
            problem = entry_check(rows, a, b)
            if problem:
                problems.append(f"{name}[{a},{b}]: {problem}")
        return problems

    return Call(name, ["gram", "--input", src, "--output", csv_name,
                       "--report", report_name],
                [csv_name, report_name], check)


def _qslice_entry(points):
    from rbffock import Quaternion, kernel_sum_tail_bound, kernel_sum_truncated

    def entry(rows, a, b):
        got = Quaternion(*rows[a][4 * b:4 * b + 4])
        q, p = Quaternion(*points[a]), Quaternion(*points[b])
        want = kernel_sum_truncated(GAMMA, q, p, KERNEL_SUM_TERMS)
        bound = kernel_sum_tail_bound(GAMMA, q, p, KERNEL_SUM_TERMS)
        diff = abs(got - want)
        if diff > bound + ROUNDING_FLOOR * (1.0 + abs(want)):
            return f"off by {diff:.3e}, tail bound {bound:.3e}"
        return None
    return entry


def _direct_entry(kernel_value):
    def entry(rows, a, b):
        got = complex(rows[a][2 * b], rows[a][2 * b + 1])
        want = kernel_value(a, b)
        if abs(got - want) > DIRECT_REL_TOL * abs(want):
            return f"{got!r} != {want!r}"
        return None
    return entry


def _gram_calls(rng, inputs: Path) -> list[Call]:
    calls = []
    for n in QSLICE_SIZES:
        pts = _quaternions(rng, n, 1.5).tolist()
        calls.append(_gram_call(f"gram-qslice-{n}", "rbf-qslice", pts,
                                inputs, _qslice_entry(pts), _pairs(rng, n)))

    zs = rng.uniform(-1.0, 1.0, (DENSE_SIZE, 2)).tolist()

    def complex_value(a, b):
        u = complex(*zs[a]) - complex(*zs[b]).conjugate()
        return cmath.exp(-(u * u) / (GAMMA * GAMMA))

    calls.append(_gram_call(f"gram-complex-{DENSE_SIZE}", "rbf-complex", zs,
                            inputs, _direct_entry(complex_value),
                            _pairs(rng, DENSE_SIZE)))

    xs = rng.uniform(-1.5, 1.5, (DENSE_SIZE, 3)).tolist()

    def real_value(a, b):
        sq = sum((u - v) ** 2 for u, v in zip(xs[a], xs[b]))
        return math.exp(-sq / (GAMMA * GAMMA))

    calls.append(_gram_call(f"gram-real-{DENSE_SIZE}", "rbf-real", xs,
                            inputs, _direct_entry(real_value),
                            _pairs(rng, DENSE_SIZE)))
    return calls


# ---------------------------------------------------------------------------
# transform: two quadrature-path calls and one exact-path contrast call

def _transform_q_call(name: str, nu: float, rng, inputs: Path,
                      check_order: int) -> Call:
    """Quaternionic RBF transform of a degree-15 Hermite function.

    The CSV is checked at sampled points against the quadrature route at
    ``check_order``.
    """
    from rbffock import HermiteCoeffFunction, Quaternion, rbf_sb_transform

    coeffs = rng.uniform(-1.0, 1.0, (TRANSFORM_DEGREE + 1, 4)).tolist()
    pts = _quaternions(rng, TRANSFORM_POINTS, 1.2).tolist()
    src = _write_json(inputs / f"{name}.json",
                      {"hermite": {"nu": nu, "coeffs": coeffs},
                       "grid": {"points": pts}})
    rows_to_check = [int(i) for i in rng.integers(0, TRANSFORM_POINTS, SAMPLES)]
    csv_name = f"{name}.csv"

    def check(run_dir: Path) -> list[str]:
        phi = HermiteCoeffFunction(nu, tuple(Quaternion.from_list(c)
                                             for c in coeffs))
        rows = _Rows(run_dir / csv_name)
        if len(rows) != TRANSFORM_POINTS:
            return [f"{name}: {len(rows)} CSV rows"]
        problems = []
        for i in rows_to_check:
            q = Quaternion(*rows[i][:4])
            got = Quaternion(*rows[i][4:])
            want = rbf_sb_transform(GAMMA, phi, q, method="quadrature",
                                    quad_order=check_order)
            if rows[i][:4] != pts[i] or not _close(got, want, QUADRATURE_TOL):
                problems.append(f"{name}[{i}]: {got} vs {want}")
        return problems

    return Call(name, ["transform", "--gamma", str(GAMMA), "--input", src,
                       "--output", csv_name], [csv_name], check)


def _transform_d_call(name: str, rng, inputs: Path) -> Call:
    """C^2 RBF transform at scale nu = 1, checked at doubled rule order."""
    from rbffock import (DEFAULT_QUAD_ORDER, HermiteCoeffFunctionD,
                         multi_indices, rbf_sb_transform_d)

    dim, nu = 2, 1.0
    indices = list(multi_indices(dim, 5))[:TRANSFORM_D_TERMS]
    coeffs = rng.uniform(-1.0, 1.0, (len(indices), 2)).tolist()
    pts = rng.uniform(-1.0, 1.0, (TRANSFORM_D_POINTS, dim, 2)).tolist()
    src = _write_json(inputs / f"{name}.json",
                      {"hermite": {"nu": nu, "terms": [
                          [list(idx), c] for idx, c in zip(indices, coeffs)]},
                       "grid": {"points": pts}})
    rows_to_check = [int(i) for i in rng.integers(0, TRANSFORM_D_POINTS, SAMPLES)]
    csv_name = f"{name}.csv"

    def check(run_dir: Path) -> list[str]:
        phi = HermiteCoeffFunctionD(nu, dim, tuple(
            (idx, complex(*c)) for idx, c in zip(indices, coeffs)))
        rows = _Rows(run_dir / csv_name)
        if len(rows) != TRANSFORM_D_POINTS:
            return [f"{name}: {len(rows)} CSV rows"]
        problems = []
        for i in rows_to_check:
            z = [complex(re, im) for re, im in pts[i]]
            got = complex(*rows[i][2 * dim:])
            want = rbf_sb_transform_d(GAMMA, dim, phi, z, method="quadrature",
                                      quad_order=2 * DEFAULT_QUAD_ORDER)
            if rows[i][:2 * dim] != sum(pts[i], []) \
                    or not _close(got, want, QUADRATURE_TOL):
                problems.append(f"{name}[{i}]: {got} vs {want}")
        return problems

    return Call(name, ["transform", "--dim", str(dim), "--gamma", str(GAMMA),
                       "--input", src, "--output", csv_name],
                [csv_name], check)


def _transform_calls(rng, inputs: Path) -> list[Call]:
    from rbffock import DEFAULT_QUAD_ORDER

    matched_nu = 2.0 / (GAMMA * GAMMA)
    return [
        # nu = 1 != 2/gamma^2 forces the quadrature path
        _transform_q_call("transform-quadrature", 1.0, rng, inputs,
                          2 * DEFAULT_QUAD_ORDER),
        _transform_d_call("transform-c2", rng, inputs),
        # matched scale takes the exact coefficient path
        _transform_q_call("transform-exact", matched_nu, rng, inputs,
                          DEFAULT_QUAD_ORDER),
    ]
