"""Rules that the package writes once stay written once: each pattern below
appears in exactly one function of ``src/rbffock``, and the two RBF spaces
share one implementation of what they do alike."""

import ast
from pathlib import Path

import pytest

from rbffock import RBFCSpace, RBFSliceSpace
from rbffock.verify import CRITERIA, VerifyConfig

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
                                     "0.5 * (nu + phi",
                                     'method not in ("auto", "quadrature")',
                                     "acc *= z", "qmul(unit_q",
                                     "x + 1j * y", "is_integer()"],
                         ids=["subnormal-rescale", "slice-envelope-exponent",
                              "segal-bargmann-prefactor-power",
                              "factorial-weight", "largest-axis-degree",
                              "quaternion-split", "fock-inner-product",
                              "fock-monomial-norm", "hermite-recurrence",
                              "segal-bargmann-rule", "transform-route",
                              "complex-horner-step", "slice-join",
                              "slice-coordinate", "whole-number"])
def test_rule_lives_in_one_function(pattern):
    owners = _owners(pattern)
    assert len(owners) == 1, owners


@pytest.mark.parametrize("method", ["_require_member", "inner_product",
                                    "norm_sq", "gram", "reproduce"])
def test_rbf_spaces_share_one_implementation(method):
    assert getattr(RBFSliceSpace, method) is getattr(RBFCSpace, method)


def test_each_criterion_reads_every_setting_it_takes():
    """A verify criterion's parameters are the settings it reads: each is a
    VerifyConfig field, and each is read in the criterion's body, so a
    signature cannot overstate what the check depends on."""
    settings = set(VerifyConfig.__dataclass_fields__)
    tree = ast.parse((SRC / "verify.py").read_text())
    criteria = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("crit_")]
    assert {fn.name for fn in criteria} == {f.__name__ for _, f in CRITERIA.values()}
    for fn in criteria:
        params = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert set(params) <= settings, (fn.name, params)
        assert set(params) <= read, (fn.name, set(params) - read)
