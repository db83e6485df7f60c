"""Rules that the package writes once stay written once: each pattern below
appears in exactly one function of ``src/rbffock``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rbffock"


def _owners(pattern: str) -> set:
    """(file, innermost enclosing function) of each line holding pattern."""
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        functions = [node for node in ast.walk(ast.parse(text))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), 1):
            if pattern in line:
                inner = min((f for f in functions
                             if f.lineno <= lineno <= f.end_lineno),
                            key=lambda f: f.end_lineno - f.lineno, default=None)
                owners.add((path.name, inner.name if inner else None))
    return owners


@pytest.mark.parametrize("pattern", ["2.0 ** 600", "x * x - y * y"],
                         ids=["subnormal-rescale", "slice-envelope-exponent"])
def test_rule_lives_in_one_function(pattern):
    owners = _owners(pattern)
    assert len(owners) == 1, owners
