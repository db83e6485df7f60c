"""Spans around rbffock functions, installed from outside the package.

``install`` wraps each function named in ``FUNCTIONS``, ``METHODS`` and the
verify criteria, and rebinds every module attribute that refers to the
original, so names imported with ``from .x import y`` are traced as well.
Spans stay in memory as (id, parent id, name, start ns, end ns, attribute)
and ``Tracer.dump`` writes them out when the call ends.

A span is not opened while another span of the same name is open, so a
method that calls a sibling method of its class is timed once.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, function); attribute functions see the call's args
FUNCTIONS = {
    "quatarray.qmul": ("_quatarray", "qmul"),
    "quatarray.horner_slice": ("_quatarray", "horner_slice"),
    "quatarray.star_exp_grid": ("_quatarray", "star_exp_grid"),
    "kernels.rbf_kernel_qslice": ("kernels", "rbf_kernel_qslice"),
    "hypercomplex.star_exp": ("hypercomplex", "star_exp"),
    "gram.build_gram": ("gram", "build_gram"),
    "gram.psd_check": ("gram", "psd_check"),
    "cli.cmd_gram": ("cli", "cmd_gram"),
    "cli._write_lines": ("cli", "_write_lines"),
    "cli._load_json": ("cli", "_load_json"),
    "quadrature.gauss_hermite": ("quadrature", "gauss_hermite"),
    "quadrature.integrate_rd": ("quadrature", "integrate_rd"),
    "quadrature.compensated_sum": ("quadrature", "compensated_sum"),
    "transforms.sb_transform": ("transforms", "sb_transform"),
    "transforms.rbf_sb_transform_d": ("transforms", "rbf_sb_transform_d"),
}

# span name -> (module, class, methods)
METHODS = {
    "spaces.FockCSpace": ("spaces", "FockCSpace",
                          ("inner_product", "norm_sq", "gram", "reproduce")),
    "spaces.FockSliceSpace": ("spaces", "FockSliceSpace",
                              ("inner_product", "norm_sq", "gram", "reproduce")),
    "spaces.RBFSliceSpace.inner_product_direct": (
        "spaces", "RBFSliceSpace", ("inner_product_direct",)),
    "series.CPowerSeries.eval_points": ("series", "CPowerSeries",
                                        ("eval_points",)),
    "series.GaussSeries.eval_slice_grid": ("series", "GaussSeries",
                                           ("eval_slice_grid",)),
}

# numpy.linalg.eigvalsh, recorded only when called directly by psd_check
EIGENSOLVE = "gram.eigensolve"


def _qslice_pair(gamma, q, p, *_, **__):
    """Unordered (gamma, q, p) key: K(p, q) is the conjugate of K(q, p)."""
    a, b = (q.w, q.x, q.y, q.z), (p.w, p.x, p.y, p.z)
    return repr((gamma,) + (a + b if a <= b else b + a))


ATTRIBUTES = {
    "kernels.rbf_kernel_qslice": _qslice_pair,
    "quadrature.gauss_hermite":
        lambda order, nu=1.0, *_, **__: repr((order, nu)),
    "spaces.FockCSpace": lambda space, *_, **__: space.quad_order ** (2 * space.dim),
    EIGENSOLVE: lambda matrix, *_, **__: matrix.shape[0],
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []
        self._open: set[str] = set()

    def wrap(self, name, fn, under=None):
        attribute = ATTRIBUTES.get(name)
        spans, stack, open_names = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else (None, None)
            if name in open_names or (under and parent[1] != under):
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append((sid, name))
            open_names.add(name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                open_names.discard(name)
                spans[sid] = (sid, parent[0], name, start, end,
                              attribute(*args, **kwargs) if attribute else None)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _rebind(original, replacement) -> int:
    """Point every rbffock module attribute bound to ``original`` at the
    replacement; return how many were rebound."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "rbffock" and not mod_name.startswith("rbffock."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install() -> Tracer:
    """Wrap the traced functions of an imported rbffock; return the tracer."""
    import numpy as np

    import rbffock.cli  # noqa: F401  (loads every module that imports names)
    from rbffock import verify

    tracer = Tracer()
    for name, (mod_name, fn_name) in FUNCTIONS.items():
        original = getattr(sys.modules[f"rbffock.{mod_name}"], fn_name)
        if not _rebind(original, tracer.wrap(name, original)):
            raise RuntimeError(f"could not rebind {name}")
    for name, (mod_name, cls_name, methods) in METHODS.items():
        cls = getattr(sys.modules[f"rbffock.{mod_name}"], cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
    for key, (label, fn) in list(verify.CRITERIA.items()):
        traced = tracer.wrap(f"verify.{key}", fn)
        _rebind(fn, traced)
        verify.CRITERIA[key] = (label, traced)
    np.linalg.eigvalsh = tracer.wrap(EIGENSOLVE, np.linalg.eigvalsh,
                                     under="gram.psd_check")
    return tracer
