"""Rules that the package writes once stay written once: each pattern below
appears in exactly one function of ``src/rbffock``, and the two RBF spaces
share one implementation of what they do alike."""

import ast
from pathlib import Path

import pytest

from rbffock import RBFCSpace, RBFSliceSpace

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


@pytest.mark.parametrize("pattern", ["2.0 ** 600", "x * x - y * y",
                                     "else 0.75", "lgamma(",
                                     "max(idx) for idx", "1j * dots[",
                                     "@ rows.conj().T", "as_integer_ratio",
                                     "math.sqrt(k / (k + 1))",
                                     "0.5 * (nu + phi"],
                         ids=["subnormal-rescale", "slice-envelope-exponent",
                              "segal-bargmann-prefactor-power",
                              "factorial-weight", "largest-axis-degree",
                              "quaternion-split", "fock-inner-product",
                              "fock-monomial-norm", "hermite-recurrence",
                              "segal-bargmann-rule"])
def test_rule_lives_in_one_function(pattern):
    owners = _owners(pattern)
    assert len(owners) == 1, owners


@pytest.mark.parametrize("method", ["_require_member", "inner_product",
                                    "norm_sq", "gram", "reproduce"])
def test_rbf_spaces_share_one_implementation(method):
    assert getattr(RBFSliceSpace, method) is getattr(RBFCSpace, method)
