"""Every rbffock name the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` rebinds module attributes and class methods by
name, and its ``install`` fails on a missing one, so a deleted or renamed
name would break ``perfbench/run.py --trace 1``.  The tables are read from
the tracer's source, and its ``ATTRIBUTES`` readers run on real arguments,
since a reader reads attributes of rbffock objects; nothing is installed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rbffock import CPowerSeries, FockCSpace, Quaternion

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _table(name: str) -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


FUNCTIONS = _table("FUNCTIONS")
METHODS = _table("METHODS")


@pytest.mark.parametrize("span", FUNCTIONS)
def test_traced_function_exists(span):
    module, attr = FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(f"rbffock.{module}"), attr))


@pytest.mark.parametrize("span", METHODS)
def test_traced_methods_exist(span):
    module, cls_name, methods = METHODS[span]
    cls = getattr(importlib.import_module(f"rbffock.{module}"), cls_name)
    for method in methods:
        assert callable(getattr(cls, method)), f"{cls_name}.{method}"


def _tracer_module():
    """The tracer, loaded by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_attributes_read_real_arguments():
    """Each ``ATTRIBUTES`` reader runs on the arguments of a real call of
    its span, so a deleted attribute fails here and not only in a traced
    benchmark run."""
    tracer = _tracer_module()
    series = CPowerSeries(2, (((1, 0), 1.0),))
    q, p = Quaternion(0.1, 0.2, 0.3, 0.4), Quaternion(-0.5, 0.0, 0.6, 0.1)
    calls = {
        "kernels.rbf_kernel_qslice": (1.0, q, p),
        "quadrature.gauss_hermite": (80, 1.0),
        "spaces.FockCSpace": (FockCSpace(1.0, 2), series, series),
        tracer.EIGENSOLVE: (np.eye(3),),
    }
    assert set(tracer.ATTRIBUTES) == set(calls)
    read = {name: tracer.ATTRIBUTES[name](*args) for name, args in calls.items()}
    assert read["kernels.rbf_kernel_qslice"] == tracer.ATTRIBUTES[
        "kernels.rbf_kernel_qslice"](1.0, p, q)
    assert read["quadrature.gauss_hermite"] == "(80, 1.0)"
    assert read["spaces.FockCSpace"] == 80 ** 4
    assert read[tracer.EIGENSOLVE] == 3
