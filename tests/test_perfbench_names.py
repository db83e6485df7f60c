"""Every rbffock name the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` rebinds module attributes and class methods by
name, and its ``install`` fails on a missing one, so a deleted or renamed
name would break ``perfbench/run.py --trace 1``.  The tables are read from
the tracer's source; nothing is installed.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
