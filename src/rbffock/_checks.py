"""Argument checks shared by the public constructors and functions."""

from __future__ import annotations

import math

import numpy as np


def positive_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless 0 < value < inf; NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def finite_points(points) -> None:
    """Raise ValueError naming the first point (last axis) that is not finite."""
    finite = np.isfinite(points)
    if not finite.all():
        bad = ~np.atleast_1d(finite).all(axis=-1)
        point = np.atleast_1d(points)[bad][0]
        raise ValueError(f"point {point.tolist()} must be finite")


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
