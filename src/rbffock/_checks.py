"""Argument checks shared by the public constructors and functions."""

from __future__ import annotations

import math


def positive_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless 0 < value < inf; NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
