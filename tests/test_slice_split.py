"""Slice-grid evaluation through the splitting f = F1 + F2 J, against the
scalar Quaternion Horner of ``QPowerSeries.eval`` (no splitting)."""

import math

import numpy as np
import pytest
from conftest import random_quaternion

from rbffock import (GaussSeries, ImaginaryUnit, QPowerSeries, Quaternion,
                     embed_in_slice)
from rbffock import _quatarray
from rbffock._quatarray import join_pair, slice_frame, split_pair

_RNG = np.random.default_rng(20240807)
_DELTA = 1e-9

AXES = {f"{sign}e{a + 1}": ImaginaryUnit(*(float(sign + "1") * np.eye(3)[a]))
        for a in range(3) for sign in "+-"}
TILTS = {f"tilt{n}": ImaginaryUnit.from_vector(*_RNG.normal(size=3))
         for n in range(4)}
# pairs whose least-aligned coordinate axis (the frame's choice of J) flips
EDGES = {"edge-xy-a": ImaginaryUnit.from_vector(0.3, 0.3 + _DELTA, 0.9),
         "edge-xy-b": ImaginaryUnit.from_vector(0.3 + _DELTA, 0.3, 0.9),
         "edge-yz-a": ImaginaryUnit.from_vector(0.9, -0.3, 0.3 + _DELTA),
         "edge-yz-b": ImaginaryUnit.from_vector(0.9, -0.3 - _DELTA, 0.3)}
UNITS = {**AXES, **TILTS, **EDGES}
UNIT_PARAMS = [pytest.param(seed, unit, id=name)
               for seed, (name, unit) in enumerate(UNITS.items())]

SHAPES = [(), (7,), (5, 6)]


def _series(rng, degree):
    return QPowerSeries(tuple(random_quaternion(rng) for _ in range(degree + 1)))


def _grid(rng, shape):
    if shape == ():
        return float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
    return rng.uniform(-2, 2, shape), rng.uniform(-2, 2, shape)


def _scale(series, q):
    """sum_n |a_n| |q|^n; a Horner sum rounds in proportion to it."""
    return math.fsum(abs(a) * abs(q) ** n for n, a in enumerate(series.coeffs))


def _check(values, x, y, unit, scalar, scale):
    x, y = np.broadcast_arrays(x, y)
    assert values.shape == x.shape + (4,)
    for idx in np.ndindex(x.shape):
        q = embed_in_slice(complex(float(x[idx]), float(y[idx])), unit)
        err = abs(Quaternion(*values[idx]) - scalar(q))
        assert err <= 1e-13 * scale(q), (idx, err, scale(q))


class TestSliceFrame:
    @pytest.mark.parametrize("seed, unit", UNIT_PARAMS)
    def test_frame_is_orthonormal_with_k_equal_ij(self, seed, unit):
        frame = slice_frame(unit)
        assert np.allclose(frame @ frame.T, np.eye(3), rtol=0, atol=1e-15)
        i, j, k = (Quaternion(0.0, *row) for row in frame)
        assert abs(i * j - k) <= 1e-15
        assert frame[0].tolist() == [unit.x, unit.y, unit.z]

    @pytest.mark.parametrize("seed, unit", UNIT_PARAMS)
    def test_split_pair_inverts_join_pair(self, seed, unit):
        # a = A + B J, with i standing for the unit, by the Hamilton product
        parts = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, 5, 4))
        a, b = split_pair(parts, unit)
        assert a.shape == b.shape == (3, 5)
        assert np.abs(join_pair((a, b), unit) - parts).max() <= 1e-15 * 8
        i, j, _ = (Quaternion(0.0, *row) for row in slice_frame(unit))
        for idx in np.ndindex(a.shape):
            embed = [Quaternion.from_real(z.real) + i * z.imag
                     for z in (a[idx], b[idx])]
            assert abs(embed[0] + embed[1] * j - Quaternion(*parts[idx])) <= 1e-14

    def test_cached_frame_is_the_fresh_one_bit_for_bit(self):
        # units that differ only in signed zeros compare and hash equal,
        # yet their frames' zeros differ in sign: each keeps its own
        pair = [ImaginaryUnit(1.0, 0.0, 0.0), ImaginaryUnit(1.0, -0.0, -0.0)]
        assert pair[0] == pair[1] and hash(pair[0]) == hash(pair[1])
        units = pair + list(UNITS.values())
        fresh = []
        for unit in units:
            _quatarray._frame.cache_clear()
            fresh.append(slice_frame(unit).tobytes())
        assert fresh[0] != fresh[1]
        for order in (units, units[::-1]):
            _quatarray._frame.cache_clear()
            frames = {id(unit): slice_frame(unit) for unit in order}
            for unit, want in zip(units, fresh):
                frame = slice_frame(unit)
                assert frame is frames[id(unit)] and frame.tobytes() == want
                assert not frame.flags.writeable

    def test_edge_units_take_different_axes(self):
        edges = list(EDGES.values())
        for a, b in (edges[:2], edges[2:]):
            ja, jb = slice_frame(a)[1], slice_frame(b)[1]
            assert np.argmax(np.abs(ja)) != np.argmax(np.abs(jb))


class TestSplitEvaluation:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("seed, unit", UNIT_PARAMS)
    def test_series_matches_scalar_horner(self, seed, unit, shape):
        rng = np.random.default_rng([seed, len(shape)])
        for degree in (0, int(rng.integers(1, 49)), 48):
            f = _series(rng, degree)
            x, y = _grid(rng, shape)
            _check(f.eval_slice_grid(x + 1j * y, unit), x, y, unit, f.eval,
                   lambda q: _scale(f, q))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("seed, unit", UNIT_PARAMS)
    def test_gauss_series_matches_scalar(self, seed, unit, shape):
        rng = np.random.default_rng([seed, len(shape), 1])
        for degree in (0, int(rng.integers(1, 49)), 48):
            gamma = float(rng.uniform(0.5, 2.0))
            g = GaussSeries(gamma, _series(rng, degree))

            def scale(q):
                # |exp(-q^2/gamma^2)| on the slice of q
                env = math.exp(-(q.w ** 2 - q.vec_norm() ** 2) / gamma ** 2)
                return env * _scale(g.series, q)

            x, y = _grid(rng, shape)
            _check(g.eval_slice_grid(x + 1j * y, unit), x, y, unit, g.eval, scale)

    @pytest.mark.parametrize("seed, unit", UNIT_PARAMS)
    def test_degree_zero_is_the_constant(self, seed, unit):
        # splitting and joining only round, and not at all on an axis frame
        a = Quaternion(0.5, -1.0, 2.0, 3.0)
        x, y = np.zeros((2, 3)), np.ones((2, 3))
        err = np.abs(QPowerSeries((a,)).eval_slice_grid(x + 1j * y, unit)
                     - a.to_list()).max()
        tol = 0.0 if unit in AXES.values() else 4 * np.finfo(float).eps * abs(a)
        assert err <= tol
