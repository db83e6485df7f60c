"""Argument checks, and the one refusal of a value that is not finite."""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np


def positive_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless 0 < value < inf; NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def whole_number(name: str, value, minimum: int = 0) -> int:
    """value as an int; raise ValueError naming ``name`` unless it is a
    whole number of at least ``minimum``."""
    if not (isinstance(value, numbers.Real) and value >= minimum
            and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number of at least "
                         f"{minimum}, got {value!r}")
    return int(value)


def _first_point(points, ok) -> list:
    """The first point (last axis) whose entries of ``ok`` are not all true."""
    points = np.atleast_1d(points)
    ok = np.reshape(ok, points.shape[:-1] + (-1,)).all(axis=-1)
    return points[~ok][0].tolist()


def finite_points(points) -> None:
    """Raise ValueError naming the first point (last axis) that is not finite."""
    finite = np.isfinite(points)
    if not finite.all():
        raise ValueError(f"point {_first_point(points, finite)} must be finite")


def _listed(value):
    """numpy values, Quaternions and sequences as numbers and lists."""
    for method in ("tolist", "to_list"):
        if hasattr(value, method):
            return getattr(value, method)()
    return [*map(_listed, value)] if isinstance(value, (list, tuple)) else value


def finite_values(what: str, compute, points=None, *, numpy: bool = True,
                  **params):
    """compute(), or OverflowError naming ``what`` when a value is not finite.

    The value is a number, a Quaternion, or an array with one value (maybe
    of several axes) per point of ``points`` (last axis; a function giving
    them is called only on a refusal).  The refusal, formatted only when
    raised, names ``params`` and the first point whose value is not
    finite, or a single value's ``points`` as given.  Python's
    OverflowError and ZeroDivisionError in compute count as not finite.
    numpy's warnings are off while compute runs, unless ``numpy=False``,
    which saves a plain Python computation most of the cost on a scalar.
    """
    try:
        if not numpy:
            value = compute()
        else:
            with np.errstate(all="ignore"):
                value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if isinstance(value, (float, complex)):
        ok = cmath.isfinite(value)
    elif hasattr(value, "to_list"):  # a Quaternion
        ok = all(map(math.isfinite, value.to_list()))
    else:
        finite = np.isfinite(value)
        ok = bool(finite.all())
        if not ok and points is not None and finite.ndim:
            points = _first_point(points() if callable(points) else points,
                                  finite)
    if ok:
        return value
    if params:
        what += " with " + ", ".join(f"{k}={_listed(v)}" for k, v in params.items())
    if points is not None:
        what += f" at point {_listed(points)}"
    raise OverflowError(f"{what} is not finite: it overflows double range")


def nu_from_gamma(gamma) -> float:
    """nu = 2/gamma^2; raise ValueError naming gamma unless gamma and nu
    are both positive finite numbers (gamma^2 may underflow or overflow)."""
    positive_finite("gamma", gamma)
    square = float(gamma) * float(gamma)
    nu = 2.0 / square if square else math.inf
    if not 0.0 < nu < math.inf:
        raise ValueError("gamma must give a positive finite nu = 2/gamma^2, "
                         f"got {gamma!r}")
    return nu
