"""Quaternion arithmetic, the imaginary-unit sphere, and slice embeddings.

A quaternion q = w + x*i + y*j + z*k with a nonzero imaginary part sits on
exactly one slice C_I = {s + I*t : s, t real}, where I is the unit imaginary
quaternion along its vector part.  C_I is an isomorphic copy of the complex
plane, so every intrinsic function used downstream (the squared-exponential
envelopes) is evaluated by ordinary complex arithmetic on the slice and
re-embedded.  The star exponential of two points on different slices is
likewise a fixed combination of two complex exponentials.

The slice decomposition of one point (``slice_parts``) and the envelope
exponent -q^2/gamma^2 (``envelope_exponent``) are written once, here.

All values here are immutable; operations are pure functions.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import finite_values, positive_finite
from .quadrature import _complex_of

__all__ = [
    "Quaternion",
    "ImaginaryUnit",
    "SlicePoint",
    "I_DEFAULT",
    "slice_decompose",
    "embed_in_slice",
    "intrinsic_exp_sq",
    "star_exp",
]


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Element w + x*i + y*j + z*k of the real quaternion algebra."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    @classmethod
    def from_real(cls, value: float) -> "Quaternion":
        return cls(float(value), 0.0, 0.0, 0.0)

    @classmethod
    def from_list(cls, items) -> "Quaternion":
        if len(items) != 4:
            raise ValueError("quaternion list form must have exactly 4 entries")
        return cls(*(float(v) for v in items))

    def to_list(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def vec_norm(self) -> float:
        """Length of the imaginary (vector) part."""
        return math.hypot(self.x, self.y, self.z)

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    # r * q for a real r, which commutes; a Quaternion r uses its own __mul__
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented


@dataclass(frozen=True, slots=True)
class ImaginaryUnit:
    """Unit imaginary quaternion I (zero real part, |I| = 1, so I*I = -1)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        n = math.hypot(self.x, self.y, self.z)
        # written so that a NaN norm fails it too
        if not abs(n - 1.0) <= 1e-9:
            raise ValueError(f"imaginary unit must have norm 1, got {n!r}")

    @classmethod
    def from_vector(cls, x: float, y: float, z: float) -> "ImaginaryUnit":
        n = math.hypot(x, y, z)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector to an imaginary unit")
        return cls(x / n, y / n, z / n)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "ImaginaryUnit":
        if abs(q.w) > 1e-12:
            raise ValueError("imaginary unit must have zero real part")
        return cls(q.x, q.y, q.z)

    @classmethod
    def from_list(cls, items) -> "ImaginaryUnit":
        return cls.from_quaternion(Quaternion.from_list(items))

    def to_list(self) -> list[float]:
        return [0.0, self.x, self.y, self.z]


I_DEFAULT = ImaginaryUnit(1.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class SlicePoint:
    """Coordinates (x, y) of a quaternion x + I*y on the slice C_I.

    The canonical decomposition of a non-real quaternion has y > 0; as a
    plain coordinate container (e.g. quadrature grids) y may be any real.
    """

    x: float
    y: float
    unit: ImaginaryUnit

    def to_quaternion(self) -> Quaternion:
        u = self.unit
        return Quaternion(self.x, u.x * self.y, u.y * self.y, u.z * self.y)


def slice_parts(x: float, y: float, z: float) -> tuple[float, ...]:
    """(v, I) with v I = x i + y j + z k, as four floats: v is math.hypot
    of the parts and I = i for v = 0.  A v that is not finite (a part that
    is not, or a norm beyond double range) is for the caller to refuse."""
    v = math.hypot(x, y, z)
    if v == 0.0:
        return v, 1.0, 0.0, 0.0
    if v < sys.float_info.min:
        # subnormal parts carry too few bits for a unit of norm 1; scaling
        # by a power of two is exact, and leaves the unit to normalize
        return (v,) + slice_parts(x * 2.0 ** 600, y * 2.0 ** 600,
                                  z * 2.0 ** 600)[1:]
    return v, x / v, y / v, z / v


def slice_decompose(q: Quaternion) -> SlicePoint:
    """Write q as x + I*y with y > 0 and I a unit imaginary quaternion.

    A real quaternion lies on every slice; it is returned with y = 0 and
    the default unit i.  A quaternion with a non-finite component, or a
    vector part whose norm leaves double range, raises ValueError.
    """
    v, ux, uy, uz = slice_parts(q.x, q.y, q.z)
    # a NaN or infinite component leaves w or v not finite
    if not (math.isfinite(q.w) and v < math.inf):
        if not all(map(math.isfinite, (q.w, q.x, q.y, q.z))):
            raise ValueError(f"cannot decompose the non-finite quaternion {q}")
        raise ValueError(f"the vector part of {q} has a norm beyond double range")
    return SlicePoint(q.w, v, ImaginaryUnit(ux, uy, uz))


def embed_in_slice(value: complex, unit: ImaginaryUnit) -> Quaternion:
    """Map a complex number x + iy to the quaternion x + unit*y."""
    return Quaternion(value.real, unit.x * value.imag,
                      unit.y * value.imag, unit.z * value.imag)


def envelope_exponent(gamma: float, x, y):
    """-(x + iy)^2/gamma^2, a complex for floats x, y, else an array: by
    components, as complex arithmetic rounds them, but without the NaN it
    makes of 0 * inf."""
    g2 = float(gamma) * float(gamma)
    re, im = -(x * x - y * y) / g2, -2.0 * x * y / g2
    return complex(re, im) if isinstance(re, float) else _complex_of(re, im)


def intrinsic_exp_sq(gamma: float, q: Quaternion) -> Quaternion:
    """exp(-q**2 / gamma**2), evaluated on the slice of q.

    The result has real series coefficients (it is intrinsic), hence
    commutes with every quaternion on the same slice.  Raises
    OverflowError, naming gamma and q, when the value is not finite.
    """
    positive_finite("gamma", gamma)
    sp = slice_decompose(q)
    value = finite_values(
        "exp(-q^2/gamma^2)",
        lambda: cmath.exp(envelope_exponent(gamma, sp.x, sp.y)),
        q, numpy=False, gamma=gamma)
    return embed_in_slice(value, sp.unit)


def star_exp_on_slice(nu: float, z, unit: ImaginaryUnit, p: Quaternion):
    """star_exp(nu; q, p) for q = Re z + unit*Im z: a Quaternion for a
    complex number z, components of shape z.shape + (4,) for an array.

    Write p = s + J*t as w = s + i*t, A = exp(nu z conj(w)) and
    B = exp(nu z w); summing the series power by power (slice
    representation formula) gives exactly (Re A + Re B)/2 + I (Im A + Im B)/2
    + (Im A - Im B)/2 J + (Re B - Re A)/2 IJ.  Raises OverflowError, naming
    nu and p, once a component is not finite: when nu Re(z conj(w)) or
    nu Re(z w) passes log(DBL_MAX) ~ 709.78, or an exponent is not finite.
    """
    positive_finite("nu", nu)
    sp = slice_decompose(p)
    w = complex(sp.x, sp.y)
    i, j = unit, sp.unit
    # I*J term for term as Quaternion.__mul__ rounds it, real parts 0.0
    ij_w = 0.0 * 0.0 - i.x * j.x - i.y * j.y - i.z * j.z
    ij_x = 0.0 * j.x + i.x * 0.0 + i.y * j.z - i.z * j.y
    ij_y = 0.0 * j.y - i.x * j.z + i.y * 0.0 + i.z * j.x
    ij_z = 0.0 * j.z + i.x * j.y - i.y * j.x + i.z * 0.0

    def value():
        # halved before adding, so A + B cannot overflow
        a = 0.5 * np.exp(nu * z * w.conjugate())
        b = 0.5 * np.exp(nu * z * w)
        c0, c1 = a.real + b.real, a.imag + b.imag
        c2, c3 = a.imag - b.imag, b.real - a.real
        parts = (c0 + c3 * ij_w,
                 c1 * i.x + c2 * j.x + c3 * ij_x,
                 c1 * i.y + c2 * j.y + c3 * ij_y,
                 c1 * i.z + c2 * j.z + c3 * ij_z)
        if isinstance(z, np.ndarray):
            return np.stack(parts, axis=-1)
        return Quaternion(*parts)
    return finite_values("the star exponential", value, nu=nu, p=p)


def star_exp(nu: float, q: Quaternion, p: Quaternion) -> Quaternion:
    """Star exponential sum_n nu^n q^n conj(p)^n / n!, in closed form.

    The powers of q stay to the left of the powers of conj(p); for p, q on
    a common slice this reduces to the complex exp(nu * z * conj(w)).  The
    closed form (``star_exp_on_slice``) is accurate to rounding; it raises
    OverflowError once an exponent's real part passes log(DBL_MAX) ~ 709.78.
    """
    sq = slice_decompose(q)
    return star_exp_on_slice(nu, complex(sq.x, sq.y), sq.unit, p)
