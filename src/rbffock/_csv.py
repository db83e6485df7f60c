"""Rows of floats as CSV text, each number the bytes of ``'%.17g' % v``.

``csv_rows`` formats a block with numpy.  The 17 significant digits of
|x| are D = round-half-even(|x| 10^(16-k)), k = floor(log10 |x|): a Dekker
two-product of |x| with 10^(16-k), held as a double-double whose parts are
computed from Python ints the first time an exponent is needed.  k starts
from np.log10 and is corrected by one step either way.  Each number is
laid out by a gather of its keep-mask from a table indexed by (sign, k,
significant digits), applied to a per-number byte source, which drops the
pad bytes: fixed notation for -4 <= k < 17 without trailing zeros,
otherwise d.ddde+XX, as %g writes them, and -0 for negative zero.

A block in which any entry is undecided -- not finite, nonzero outside
[1e-280, 1e280], or within 1e-9 of a rounding tie -- is written by the %
template instead, so every byte is %.17g's by construction.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# |x| outside this range, zero aside, takes the % template: inside it,
# 10^(16-k) and the two-product's parts are normal doubles
_SMALLEST, _LARGEST = 1e-280, 1e280
_TIE = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# layout classes: fixed notation for k = -4 .. 16, then an exponent of two
# or of three digits
_CLASSES = 23
# a number's byte source, six little-endian words: '-' (byte 1), the
# prefix 0.000 (2-6), the digits A (7-23), the digits B (23-39) with a
# point written over B[j], the exponent right-aligned (40-44) and the
# separator (45-47).  Each layout keeps runs of it in order: the digits up
# to the point from A, then the point and the rest from B.  A[16] and B[0]
# share a byte, since no layout reads both: the point goes to B[16] where
# B is not read.
_MINUS, _PREFIX, _A, _B, _X, _SEP, _WIDTH = 1, 2, 7, 23, 40, 45, 48


@functools.cache
def _power(j: int) -> tuple[float, float, float, float]:
    """(hi, lo, hi's upper half, hi's lower half): hi + lo = 10^j to about
    2^-106 relative, hi split for the two-product."""
    if j >= 0:
        p = 10 ** j
        hi = float(p)
        lo = float(p - int(hi))
    else:
        q = 10 ** -j
        hi = 1 / q  # int true division is correctly rounded
        mantissa, e = math.frexp(hi)  # hi = int(mantissa 2^53) / 2^(53 - e)
        scale = 2 ** (53 - e)
        lo = (scale - int(mantissa * 2 ** 53) * q) / (scale * q)
    t = hi * _SPLIT
    upper = t - (t - hi)
    return hi, lo, upper, hi - upper


def _word(text: bytes) -> np.uint64:
    """Up to eight bytes as one little-endian word, zero-padded."""
    return np.frombuffer(text.ljust(8, b"\0"), dtype="<u8")[0]


class _Tables:
    """The lookup tables for separators of ``sep_length`` bytes: ASCII of
    0000..9999 as words (quads); the trailing zeros of 0..9999, 4 for 0
    (trailing); by k + 400, the exponent's word (exponents), the point's
    byte in the source (point) and the first key of k's class (class_keys);
    and by key, the keep-mask of (sign, class, digits) (keep)."""

    def __init__(self, sep_length: int):
        ascii4 = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1])
                  % 10 + ord("0")).astype(np.uint8)
        self.quads = ascii4.view("<u4").ravel().astype("<u8")
        self.trailing = np.zeros(10000, dtype=np.int64)
        for t in (1, 2, 3, 4):
            self.trailing[np.arange(10000) % 10 ** t == 0] = t

        ks = np.arange(-400, 400)
        # e+dd right-aligned in bytes 1-4, e+ddd in bytes 0-4
        two = np.abs(ks) < 100
        sign = np.where(ks < 0, ord("-"), ord("+"))
        exponents = np.zeros((ks.size, 8), dtype=np.uint8)
        exponents[:, 3:5] = ascii4[np.abs(ks), 2:]
        exponents[:, 2] = np.where(two, sign, ascii4[np.abs(ks), 1])
        exponents[:, 1] = np.where(two, ord("e"), sign)
        exponents[:, 0] = np.where(two, 0, ord("e"))
        self.exponents = exponents.view("<u8").ravel()
        fixed = (ks >= -4) & (ks <= 16)
        # the point after digit k, after the first digit, or unread at B[16]
        self.point = _B + np.where(fixed, np.where(ks >= 0, ks, 16), 0)
        self.class_keys = 18 * np.where(fixed, ks + 4, 21 + (np.abs(ks) >= 100))

        # each class's runs of the source, [start, stop), by its digits nd
        cls = np.arange(_CLASSES)[:, None, None]
        nd = np.arange(18)[:, None]
        small = cls < 4  # 0.000ddd, k = cls - 4
        j = np.where(cls <= 20, cls - 4, 0)  # otherwise the point is at B[j]
        runs = [(_PREFIX, np.where(small, _PREFIX + 5 - cls, 0)),
                (_A, _A + np.where(small, nd, j + 1)),
                (_B + j, np.where(small | (nd <= j + 1), 0, _B + nd)),
                (_X + (cls == 21), np.where(cls > 20, _SEP, 0)),
                (_SEP, _SEP + sep_length)]
        column = np.arange(_WIDTH)
        keep = np.zeros((_CLASSES, 18, _WIDTH), dtype=bool)
        for start, stop in runs:
            keep |= (column >= start) & (column < stop)
        self.keep = np.stack((keep, keep | (column == _MINUS))).reshape(-1, _WIDTH)


_tables = functools.cache(_Tables)


def _digits(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a 10^(16-k)) as int64, and the fraction it leaves.  a 10^(16-k)
    = p + e to about 2^-100, p = fl(a hi) and e from the two-product; when
    it is at least 2^53, p is a whole number, and below that the caller
    corrects k anyway."""
    low = int(k.min())
    table = np.array([_power(16 - e) for e in range(low, int(k.max()) + 1)]).T
    hi, lo, upper, lower = (np.take(column, k - low) for column in table)
    p = a * hi
    del hi
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    # the two-product's error, then a lo, summed in place in this order
    frac = ah * upper
    frac -= p
    frac += ah * lower
    frac += al * upper
    frac += al * lower
    frac += a * lo
    carry = np.floor(frac)
    frac -= carry
    return p.astype(np.int64) + carry.astype(np.int64), frac


def _decimal(x: np.ndarray):
    """The 17 significant digits of each entry of x, as the lead digit and
    four groups of four, and its decimal exponent k, all 0 for a zero; or
    None when an entry is undecided."""
    a = np.abs(x)
    zero = a == 0.0
    if not (x.size and ((a >= _SMALLEST) & (a <= _LARGEST) | zero).all()):
        return None
    a[zero] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _digits(a, k)
    for _ in range(3):
        # k = floor(log10 a) exactly when 10^16 <= a 10^(16-k) < 10^17
        off = (whole < 10 ** 16) | (whole >= 10 ** 17)
        if not off.any():
            break
        k[off] += np.where(whole[off] < 10 ** 16, -1, 1)
        whole[off], frac[off] = _digits(a[off], k[off])
    if off.any() or (np.abs(frac - 0.5) < _TIE).any():
        return None
    d = whole + (frac > 0.5)
    # rounding up to 10^17 carries into the exponent, as %e does
    carry = d == 10 ** 17
    k += carry
    d -= carry * (10 ** 17 - 10 ** 16)
    d[zero] = 0
    k[zero] = 0
    high = d // 10 ** 8
    d -= high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    g0, g2 = high // 10000, d // 10000
    high -= g0 * 10000
    d -= g2 * 10000
    return lead, (g0, high, g2, d), k


def _key(x: np.ndarray, groups: tuple, k: np.ndarray,
         tables: _Tables) -> np.ndarray:
    """Each number's row of the keep-masks: its sign, class and digits.  A
    zero's groups are all 0, so it has one digit."""
    trailing = tables.trailing
    zeros = np.take(trailing, groups[3])
    more = np.flatnonzero(zeros == 4)
    if more.size:
        t2, t1, t0 = (trailing[g[more]] for g in groups[2::-1])
        zeros[more] = np.where(t2 < 4, 4 + t2,
                               np.where(t1 < 4, 8 + t1, 12 + t0))
    key = np.take(tables.class_keys, k + 400)
    key += 17 - zeros
    key += _CLASSES * 18 * np.signbit(x)
    return key


def _source(lead: np.ndarray, groups: tuple, k: np.ndarray, sep: str,
            end: str, cols: int, tables: _Tables) -> np.ndarray:
    """Each number's byte source, one row of _WIDTH bytes per number."""
    n = k.size
    words = np.empty((n // cols, cols, _WIDTH // 8), dtype="<u8")
    flat = words.reshape(n, -1)
    flat[:, 0] = _word(b"\0-0.000")
    for i, (high, low) in enumerate((groups[:2], groups[2:])):
        flat[:, 1 + i] = flat[:, 3 + i] = (
            np.take(tables.quads, high)
            | np.take(tables.quads, low) << np.uint64(32))
    flat[:, 5] = np.take(tables.exponents, k + 400)
    words[:, :-1, 5] |= _word(b"\0" * 5 + sep.encode())
    words[:, -1, 5] |= _word(b"\0" * 5 + end.encode())
    source = words.view(np.uint8).reshape(n, _WIDTH)
    source[:, _A] = lead + ord("0")
    at = np.take(tables.point, k + 400)
    at += np.arange(0, n * _WIDTH, _WIDTH)
    source.ravel()[at] = ord(".")
    return source


def csv_rows(values: np.ndarray, sep: str = ",", end: str = "\n") -> str:
    """The rows of a 2-D float array as text: each number as '%.17g' % v
    writes it, followed by ``sep``, or by ``end`` after the last of a row.
    sep and end are ASCII of one length, at most three characters."""
    rows, cols = values.shape
    x = np.ascontiguousarray(values, dtype=float).ravel()
    digits = _decimal(x)
    if digits is None:
        return ((sep.join(["%.17g"] * cols) + end) * rows) % tuple(x.tolist())
    # each stage's arrays are dropped before the next stage's are made: a
    # block peaks at about 130 bytes a number
    lead, groups, k = digits
    del digits
    tables = _tables(len(sep))
    key = _key(x, groups, k, tables)
    source = _source(lead, groups, k, sep, end, cols, tables)
    del lead, groups, k
    keep = np.take(tables.keep, key, axis=0)
    del key
    text = source[keep]
    del source, keep
    return str(text.data, "ascii")
