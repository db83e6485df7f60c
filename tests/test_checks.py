"""``_checks.finite_values`` is the one refusal of a computed value that is
not finite: it names the first point whose value is not, lets no numpy
warning escape, and is the only place in the package that switches numpy's
warnings off or raises OverflowError for a value."""

import cmath
import re
from pathlib import Path

import numpy as np
import pytest

from rbffock import Quaternion
from rbffock._checks import finite_values

SRC = Path(__file__).resolve().parent.parent / "src" / "rbffock"

pytestmark = pytest.mark.filterwarnings("error")


def test_finite_values_pass_through():
    grid = np.arange(6.0).reshape(3, 2)
    assert finite_values("x", lambda: grid, grid) is grid
    assert finite_values("x", lambda: 1.5 + 2j, [0.0]) == 1.5 + 2j
    q = Quaternion(1, 2, 3, 4)
    assert finite_values("x", lambda: q, q, numpy=False) is q


def test_scalar_names_its_point_and_params():
    with pytest.raises(OverflowError, match=re.escape(
            "the value with gamma=1.0 at point [30j] is not finite: "
            "it overflows double range")):
        finite_values("the value", lambda: cmath.exp(900 + 0j), [30j],
                      numpy=False, gamma=1.0)


def test_python_zero_division_counts_as_not_finite():
    with pytest.raises(OverflowError, match=r"at point \[1e-300\]"):
        finite_values("the value", lambda: 1.0 / (1e-300 * 1e-300), [1e-300])


def test_quaternion_names_its_point():
    q = Quaternion(0.0, 30.0, 0.0, 0.0)
    with pytest.raises(OverflowError,
                       match=re.escape("at point [0.0, 30.0, 0.0, 0.0] is")):
        finite_values("the value", lambda: q * 1e308 * 1e308, q, numpy=False)


def test_array_names_the_first_point_not_finite():
    points = np.array([[0.0, 1.0], [700.0, 0.5], [800.0, 0.0], [900.0, 0.0]])
    with pytest.raises(OverflowError,
                       match=re.escape("at point [800.0, 0.0] is not finite")):
        finite_values("the value", lambda: np.exp(points.sum(axis=-1)), points)


def test_array_with_trailing_value_axes():
    # one point per row, four components per value
    points = np.array([[0.1], [2.0], [-800.0]])
    with pytest.raises(OverflowError, match=re.escape("at point [-800.0]")):
        finite_values("the value", lambda: np.exp(-points * [1.0, -1.0, 0, 0]),
                      points)


def test_nan_counts_as_not_finite():
    with pytest.raises(OverflowError, match="^the difference is not finite"):
        finite_values("the difference", lambda: np.array([np.inf]) - np.inf)


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_refusal_lives_only_in_checks(name):
    """np.errstate and a raised OverflowError appear only in _checks.py."""
    if name == "_checks.py":
        return
    text = (SRC / name).read_text()
    assert "errstate" not in text
    assert not re.search(r"raise\s+OverflowError", text)


def test_checks_holds_the_refusal():
    text = (SRC / "_checks.py").read_text()
    assert "np.errstate" in text and "raise OverflowError" in text
