"""Command-line interface: kernel evaluation, Gram assembly, transforms,
basis tabulation, and the verification suite.

Structured input is JSON, matrices and grids are CSV with floats written
to 17 significant digits; quaternion-valued columns appear as four-column
groups suffixed .w/.x/.y/.z.  Runs are deterministic: randomized checks
draw from a fixed seed unless --seed overrides it.

Exit codes: 0 success / all checks passed, 1 numerical check failure,
2 bad input (schema or value errors, reported with the offending field).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from ._checks import nu_from_gamma
from .bases import (MAX_HERMITE_ORDER, hermite_h, hermite_psi, rbf_basis_c,
                    rbf_basis_q)
from .gram import GRAM_KERNELS, build_gram, psd_check
from .hypercomplex import Quaternion
from .kernels import KERNELS, NORMALIZATIONS
from .quadrature import DEFAULT_QUAD_ORDER
from .transforms import (HermiteCoeffFunction, HermiteCoeffFunctionD,
                         rbf_sb_transform, rbf_sb_transform_d, sb_transform)
from .verify import CRITERIA, DEFAULT_SEED, VerifyConfig, run_all


class InputError(Exception):
    """Schema or value problem in user-supplied input."""


@contextlib.contextmanager
def _refusal(where: str):
    """Report the library's refusal of input inside the block at ``where``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: {exc}") from None


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _re_im(value: complex) -> list:
    return [value.real, value.imag]


def _load_json(path: str) -> dict:
    def reject(name: str):
        raise InputError(f"{path}: non-finite number {name} is not allowed")

    def finite(text: str, kind: type):
        # float() reads 1e400, and a 400-digit integer, as inf
        if not math.isfinite(float(text)):
            reject(text)
        return kind(text)

    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=reject,
                             parse_float=lambda t: finite(t, float),
                             parse_int=lambda t: finite(t, int))
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _require(data: dict, field: str, where: str):
    if not isinstance(data, dict) or field not in data:
        raise InputError(f"{where}: missing required field {field!r}")
    return data[field]


def _write_lines(lines: Iterable[str], path: str | None) -> None:
    """Write each line as it comes, to ``path`` or to stdout."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(line + "\n" for line in lines)


def _columns(layout: type) -> tuple[str, ...]:
    return ("w", "x", "y", "z") if layout is Quaternion else ("re", "im")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(item, where: str) -> complex:
    if _is_number(item):
        return complex(item)
    if isinstance(item, list) and len(item) == 2 and all(map(_is_number, item)):
        return complex(item[0], item[1])
    raise InputError(f"{where}: expected [re, im], got {item!r}")


def _parse_point(layout: type, item, where: str):
    if layout is Quaternion:
        if not (isinstance(item, list) and len(item) == 4
                and all(map(_is_number, item))):
            raise InputError(f"{where}: quaternion points are [w, x, y, z]")
        return Quaternion.from_list(item)
    if layout is complex:
        if isinstance(item, list) and item and isinstance(item[0], list):
            return np.array([_parse_complex(v, where) for v in item])
        return np.array([_parse_complex(item, where)])
    if not isinstance(item, list):
        item = [item]
    if not all(map(_is_number, item)):
        raise InputError(f"{where}: real points are lists of numbers")
    return np.asarray(item, dtype=float)


def _parameter(name: str, kind: type, value, where: str):
    if not (_is_number(value) and 0 < value < math.inf
            and kind(value) == value):
        noun = "whole number" if kind is int else "finite number"
        raise InputError(f"{where}: {name} must be a positive {noun}, "
                         f"got {value!r}")
    return kind(value)


def _kernel_input(data: dict, args, command: str, field: str):
    """Kernel id, spec, parameters and the non-empty list ``field`` of a
    kernel or gram input.  gamma may come from --gamma instead of the JSON,
    and a missing alpha is derived from gamma as 2/gamma^2."""
    kernel_id = _require(data, "kernel", f"{command} input")
    if kernel_id not in GRAM_KERNELS:
        raise InputError(f"{command}: unknown kernel {kernel_id!r}; "
                         f"choose from {GRAM_KERNELS}")
    spec = KERNELS[kernel_id]
    gamma = data.get("gamma", args.gamma)
    params: dict = {}
    for name, kind in spec.params:
        value = data.get(name)
        if value is None and gamma is not None and name in ("gamma", "alpha"):
            value = _parameter("gamma", float, gamma, command)
            if name == "alpha":
                with _refusal(command):
                    value = nu_from_gamma(value)
        if value is None:
            hint = {"gamma": " or via --gamma", "alpha": ", or gamma to "
                    "derive alpha = 2/gamma^2"}.get(name, "")
            raise InputError(f"{command}: supply {name} in the input{hint}")
        params[name] = _parameter(name, kind, value, command)
    items = _require(data, field, f"{command} input")
    if not isinstance(items, list) or not items:
        raise InputError(f"{command} input: field {field!r} must be a "
                         "non-empty list")
    return kernel_id, spec, params, items


def cmd_kernel(args) -> int:
    _, spec, params, pairs = _kernel_input(_load_json(args.input), args,
                                           "kernel", "pairs")
    lines = ["pair," + ",".join(f"value.{c}" for c in _columns(spec.layout))]
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"pairs[{i}]: expected [point, point]")
        a = _parse_point(spec.layout, pair[0], f"pairs[{i}][0]")
        b = _parse_point(spec.layout, pair[1], f"pairs[{i}][1]")
        with _refusal(f"pairs[{i}]"):
            value = spec(params, a, b)
        parts = (value.to_list() if isinstance(value, Quaternion)
                 else [value.real, value.imag])
        lines.append(f"{i}," + ",".join(map(_fmt, parts)))
    _write_lines(lines, args.output)
    return 0


# rows of a Gram formatted together; the rows below a block keep their
# cells of it, so the writer holds at most about N^2/4 entries of text
_GRAM_BLOCK = 32
_SIGNS = np.array(["", "-"], dtype=object)


def _gram_rows(g: np.ndarray) -> Iterator[str]:
    """CSV rows of a Gram, the same bytes as formatting each number by _fmt.

    Quaternion cells are four numbers, complex cells re,im; a real Gram's
    imaginary column is +0.0 throughout and is written as the constant 0.
    g must be stored exactly Hermitian, as build_gram stores it: an entry
    and its mirror have equal real parts and imaginary parts of equal
    magnitude.  So each unordered pair is formatted once, from the upper
    triangle, with a %s slot before each imaginary magnitude, and each row
    fills its slots with the signs of its own entries (a zero keeps its
    own sign).  Rows go in blocks of _GRAM_BLOCK, each block row formatted
    from the diagonal on; the rows below keep their cells of the block as
    one fragment per row until their own block is written, at most about
    N^2/4 entries of text.
    """
    n = g.shape[0]
    cell = ("%.17g,%%s%.17g,%%s%.17g,%%s%.17g" if g.ndim == 3
            else "%.17g,%%s%.17g" if np.iscomplexobj(g) else "%.17g,0")
    template = ";".join([cell] * n)
    pending = [[] for _ in range(n)]
    for s in range(0, n, _GRAM_BLOCK):
        e = min(s + _GRAM_BLOCK, n)
        values = g[s:e]
        if np.iscomplexobj(values):
            values = np.stack((values.real, values.imag), axis=-1)
        values = values.reshape(e - s, n, -1)
        signs = _SIGNS[np.signbit(values[..., 1:]).view(np.int8)]
        signs = signs.reshape(e - s, -1).tolist()
        values = np.concatenate((values[..., :1], np.abs(values[..., 1:])),
                                axis=-1)
        # rows[t][c] is the cell of (s + t, s + c), blank left of the diagonal
        rows = [[""] * t + (template[(s + t) * (len(cell) + 1):]
                            % tuple(values[t, s + t:].ravel().tolist())).split(";")
                for t in range(e - s)]
        for t, column in enumerate(zip(*rows)):
            r = s + t
            if r >= e:
                pending[r].append(",".join(column))
                continue
            line = ",".join(pending[r] + [*column[:t], *rows[t][t:]])
            pending[r] = None
            yield line % tuple(signs[t]) if signs[t] else line


def cmd_gram(args) -> int:
    kernel_id, spec, params, raw_points = _kernel_input(
        _load_json(args.input), args, "gram", "points")
    points = [_parse_point(spec.layout, p, f"points[{i}]")
              for i, p in enumerate(raw_points)]
    for i, p in enumerate(points):
        if np.shape(p) != np.shape(points[0]):
            raise InputError(f"points[{i}]: shape {np.shape(p)} differs from "
                             f"points[0] {np.shape(points[0])}")
    with _refusal("gram"):
        gram = build_gram(kernel_id, params, points)
    report = psd_check(gram, tol=args.tol)

    n = gram.size
    header = ",".join(f"g{b}.{c}" for b in range(n)
                      for c in _columns(spec.layout))
    _write_lines(itertools.chain([header], _gram_rows(gram.entries)),
                 args.output)

    payload = {"kernel": kernel_id, "params": params, "size": n,
               "min_eig": report.min_eigenvalue, "tol": report.tol,
               "psd": report.psd, "points_hash": gram.points_hash}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def _grid_values(apply, points: np.ndarray) -> np.ndarray:
    """apply(points), the whole grid in one call.  A refusal names the
    transform when it refuses even no points, or else the first grid point
    that it refuses on its own."""
    try:
        with _refusal("transform"):
            return apply(points)
    except InputError:
        parts = [("transform", points[:0])] + [
            (f"grid.points[{i}]", points[i:i + 1]) for i in range(len(points))]
        for where, part in parts:
            with _refusal(where):
                apply(part)
        raise


def _transform_rows(points: np.ndarray, values: np.ndarray) -> Iterator[str]:
    """CSV rows: each point's coordinates, then its value's, as _fmt would;
    a complex number is written as re,im."""
    table = np.column_stack([points, values])
    if np.iscomplexobj(table):
        table = table.view(float)
    template = ",".join(["%.17g"] * table.shape[1])
    for row in table.tolist():
        yield template % tuple(row)


def _hermite_nu(fn_data) -> float:
    where = "transform input.hermite"
    return _parameter("nu", float, _require(fn_data, "nu", where), where)


def _grid_points(data) -> list:
    grid = _require(data, "grid", "transform input")
    raw_points = _require(grid, "points", "transform input.grid")
    if not isinstance(raw_points, list):
        raise InputError("transform input.grid: field 'points' must be a list")
    return raw_points


def _transform_d(args, data) -> int:
    """Several-complex-variable branch of the transform command."""
    dim = args.dim
    fn_data = _require(data, "hermite", "transform input")
    nu_phi = _hermite_nu(fn_data)
    raw_terms = _require(fn_data, "terms", "transform input.hermite")
    if not isinstance(raw_terms, list):
        raise InputError("transform input.hermite: field 'terms' must be a list")
    terms = []
    for i, item in enumerate(raw_terms):
        where = f"transform input.hermite.terms[{i}]"
        if not (isinstance(item, list) and len(item) == 2):
            raise InputError(f"{where}: expected [multi_index, [re, im]]")
        index, coeff = item
        if not (isinstance(index, list) and len(index) == dim
                and all(_is_number(n) and n >= 0 and int(n) == n
                        for n in index)):
            raise InputError(f"{where}: multi-index must be {dim} whole "
                             "numbers >= 0")
        terms.append((tuple(int(n) for n in index),
                      _parse_complex(coeff, where)))
    with _refusal("transform input.hermite"):
        phi = HermiteCoeffFunctionD(nu_phi, dim, tuple(terms))
    points = []
    for i, item in enumerate(_grid_points(data)):
        where = f"grid.points[{i}]"
        if not (isinstance(item, list) and len(item) == dim):
            raise InputError(f"{where}: points in C^{dim} are lists of "
                             f"{dim} [re, im] pairs")
        points.append([_parse_complex(v, where) for v in item])
    if args.gamma is None:
        raise InputError("transform: the C^d transform needs --gamma")
    points = np.array(points, dtype=complex).reshape(-1, dim)

    values = _grid_values(lambda z: rbf_sb_transform_d(
        args.gamma, dim, phi, z, quad_order=args.quad_order), points)
    header = ",".join(f"z{l}.re,z{l}.im" for l in range(dim))
    _write_lines(itertools.chain(
        [header + ",value.re,value.im"],
        _transform_rows(points, values)), args.output)
    return 0


def cmd_transform(args) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict) and "samples" in data:
        raise InputError(
            "transform: sampled input carries no decay certificate the "
            "quadrature can trust; provide the function as "
            '{"hermite": {"nu": ..., "coeffs": [[w,x,y,z], ...]}}')
    if args.dim is not None and args.dim != 1:
        return _transform_d(args, data)
    fn_data = _require(data, "hermite", "transform input")
    nu_phi = _hermite_nu(fn_data)
    coeffs = _require(fn_data, "coeffs", "transform input.hermite")
    if not isinstance(coeffs, list):
        raise InputError("transform input.hermite: field 'coeffs' must be a list")
    coeffs = [_parse_point(Quaternion, c, f"transform input.hermite.coeffs[{i}]")
              for i, c in enumerate(coeffs)]
    with _refusal("transform input.hermite.coeffs"):
        phi = HermiteCoeffFunction(nu_phi, tuple(coeffs))
    points = np.array([_parse_point(Quaternion, p, f"grid.points[{i}]").to_list()
                       for i, p in enumerate(_grid_points(data))]).reshape(-1, 4)

    if args.gamma is not None:
        def apply(q):
            return rbf_sb_transform(args.gamma, phi, q, args.normalization,
                                    quad_order=args.quad_order)
    elif args.nu is not None:
        def apply(q):
            return sb_transform(args.nu, phi, q, args.normalization,
                                quad_order=args.quad_order)
    else:
        raise InputError("transform: choose the target with --gamma "
                         "(RBF-side) or --nu (Fock-side)")

    values = _grid_values(apply, points)
    _write_lines(itertools.chain(
        ["q.w,q.x,q.y,q.z,value.w,value.x,value.y,value.z"],
        _transform_rows(points, values)), args.output)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop = float(start), float(stop)
        if not math.isfinite(stop - start):
            raise InputError("--grid start and stop must be finite and less "
                             f"than double range apart, got {text}")
        return np.linspace(start, stop, int(count))
    except ValueError:
        raise InputError("grid must be start:stop:count")


# basis family -> (its scale flag, column suffixes of one order, values at x)
BASIS_FAMILIES = {
    "rbf-q": ("gamma", (".w", ".x", ".y", ".z"), lambda args, x, n: rbf_basis_q(
        args.gamma, n, Quaternion(x, args.imag, 0.0, 0.0)).to_list()),
    "rbf-c": ("gamma", (".re", ".im"), lambda args, x, n: _re_im(
        rbf_basis_c(args.gamma, n, complex(x, args.imag)))),
    "hermite-h": ("nu", ("",), lambda args, x, n: [hermite_h(args.nu, n, x)]),
    "hermite-psi": ("nu", ("",),
                    lambda args, x, n: [hermite_psi(args.nu, n, x)]),
}


def cmd_basis(args) -> int:
    xs = _parse_grid(args.grid)
    scale, suffixes, values = BASIS_FAMILIES[args.family]
    if not 0 <= args.n_max <= (MAX_HERMITE_ORDER if scale == "nu" else math.inf):
        raise InputError(f"--n-max must be at least 0, and at most "
                         f"{MAX_HERMITE_ORDER} for the hermite families, "
                         f"got {args.n_max}")
    if getattr(args, scale) is None:
        raise InputError(f"basis: the {args.family} family needs --{scale}")
    orders = range(args.n_max + 1)
    lines = ["x," + ",".join(f"n{n}{c}" for n in orders for c in suffixes)]
    with _refusal("basis"):
        lines += [",".join(map(_fmt, [x, *(v for n in orders
                                           for v in values(args, float(x), n))]))
                  for x in xs]
    _write_lines(lines, args.output)
    return 0


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",")]
        unknown = [n for n in only if n not in CRITERIA]
        if unknown:
            raise InputError(f"verify: unknown criteria {unknown}; "
                             f"choose from {sorted(CRITERIA)}")
    with _refusal("verify"):
        cfg = VerifyConfig(gamma=args.gamma if args.gamma is not None else 1.0,
                           quad_order=args.quad_order,
                           normalization=args.normalization,
                           tol_scale=args.tol, seed=args.seed)
        results = run_all(cfg, only)
    payload = {"config": {"gamma": cfg.gamma, "quad_order": cfg.quad_order,
                          "normalization": cfg.normalization,
                          "tol_scale": cfg.tol_scale, "seed": cfg.seed},
               "checks": [r.to_json() for r in results],
               "passed": all(r.passed for r in results)}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] {r.check} {r.params} "
                         f"value={r.value:.3e} bound={r.bound:.3e}\n")
    sys.stdout.write("verify: all checks passed\n" if payload["passed"]
                     else "verify: FAILURES present\n")
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbffock",
        description="Gaussian RBF kernels, Fock spaces, and their transforms")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gamma", type=float, default=None,
                        help="Gaussian kernel width parameter")
    common.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER,
                        help="Gauss-Hermite order, 8 to 512 (default 80), of "
                        "the quadrature routes (reproduce, the direct "
                        "isometry route, quadrature transforms); Fock inner "
                        "products are exact and use none")
    common.add_argument("--dim", type=int, default=None,
                        help="dimension for quadrature-backed commands, "
                        "1 to 3")
    common.add_argument("--output", default=None, help="CSV output path "
                        "(stdout when omitted)")

    p = sub.add_parser("kernel", parents=[common],
                       help="evaluate kernel values for point pairs")
    p.add_argument("--input", required=True, help="JSON with kernel id, "
                   "parameters, and pairs")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("gram", parents=[common],
                       help="assemble a kernel Gram matrix and certify PSD")
    p.add_argument("--input", required=True,
                   help="JSON with kernel id, parameters, and points")
    p.add_argument("--report", default=None, help="JSON report path")
    p.add_argument("--tol", type=float, default=None,
                   help="PSD tolerance (default size*eps*|G|)")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("transform", parents=[common],
                       help="apply a Segal-Bargmann-type transform")
    p.add_argument("--input", required=True,
                   help="JSON with the hermite-coefficient function and grid")
    p.add_argument("--nu", type=float, default=None,
                   help="Fock-side transform scale (alternative to --gamma)")
    p.add_argument("--normalization", choices=list(NORMALIZATIONS),
                   default="unitary")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("basis", parents=[common],
                       help="tabulate basis functions on a grid to CSV")
    p.add_argument("--family", required=True, choices=list(BASIS_FAMILIES))
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--grid", default="-2:2:81", help="start:stop:count")
    p.add_argument("--imag", type=float, default=0.0,
                   help="imaginary offset of the evaluation line")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("verify", parents=[common],
                       help="run the full property-verification suite")
    p.add_argument("--normalization", choices=list(NORMALIZATIONS),
                   default="unitary")
    p.add_argument("--tol", type=float, default=1.0,
                   help="multiplier applied to every check bound")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--report", default=None, help="JSON report path")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion names")
    p.set_defaults(fn=cmd_verify)
    return parser


def _validate_common(args) -> None:
    for flag in ("gamma", "nu", "tol", "imag"):
        value = getattr(args, flag, None)
        # gram's --tol is a PSD tolerance and basis's --imag an offset;
        # either may be zero or negative
        signed = flag == "imag" or (flag, args.command) == ("tol", "gram")
        low = -math.inf if signed else 0.0
        if value is not None and not low < value < math.inf:
            kind = "finite" if low < 0 else "positive and finite"
            raise InputError(f"--{flag} must be {kind}, got {value}")
    if not 8 <= getattr(args, "quad_order", DEFAULT_QUAD_ORDER) <= 512:
        raise InputError("--quad-order must lie in [8, 512]")
    dim = getattr(args, "dim", None)
    if dim is not None and not 1 <= dim <= 3:
        raise InputError("--dim must lie in [1, 3]")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_common(args)
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
