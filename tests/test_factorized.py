"""Sum-factorized C^d quadrature against a sum over the full tensor grid."""

import math

import numpy as np
import pytest

from rbffock import (CPowerSeries, FockCSpace, HermiteCoeffFunctionD,
                     RBFCSpace, gauss_hermite, multi_indices,
                     rbf_basis_series_d, rbf_sb_transform_d)

REL = 1e-13


def tensor_grid(rule, n_axes: int):
    """Every node of the n_axes-fold tensor grid, with its weight product."""
    axes = np.meshgrid(*([np.arange(rule.order)] * n_axes), indexing="ij")
    idx = np.stack([a.ravel() for a in axes], axis=-1)
    return rule.nodes[idx], np.prod(rule.weights[idx], axis=-1)


def grid_sum(weights, values) -> complex:
    terms = weights * values
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def fock_grid(space):
    """Points of C^d and weights of the M^(2d) grid of a FockCSpace."""
    coords, weights = tensor_grid(gauss_hermite(space.quad_order, space.alpha),
                                  2 * space.dim)
    return coords[:, 0::2] + 1j * coords[:, 1::2], weights


def oracle_inner_product(space, f, g) -> complex:
    z, w = fock_grid(space)
    value = grid_sum(w, f.eval_points(z) * np.conj(g.eval_points(z)))
    return (space.alpha / math.pi) ** space.dim * value


def oracle_reproduce(space, f, point) -> complex:
    z, w = fock_grid(space)
    kernel = np.exp(space.alpha * (np.conj(z) @ np.asarray(point)))
    value = grid_sum(w, kernel * f.eval_points(z))
    return (space.alpha / math.pi) ** space.dim * value


def oracle_transform(gamma, dim, phi, point, order) -> complex:
    nu = 2.0 / (gamma * gamma)
    x, w = tensor_grid(gauss_hermite(order, nu), dim)
    u = math.sqrt(2.0) * np.asarray(point)[None, :] - x
    kernel = np.exp(-np.sum(u * u, axis=1) / (gamma * gamma))
    comp = np.exp(nu * np.sum(x * x, axis=1))
    pref = (2.0 / (math.pi * gamma * gamma)) ** (dim / 4.0)
    return pref * grid_sum(w, kernel * phi.eval_points(x) * comp)


def random_terms(rng, dim: int, max_order: int):
    return tuple((idx, complex(*rng.uniform(-1, 1, 2)))
                 for idx in multi_indices(dim, max_order))


def random_point(rng, dim: int):
    return rng.uniform(-0.8, 0.8, dim) + 1j * rng.uniform(-0.8, 0.8, dim)


def close(got, want, scale) -> bool:
    return abs(got - want) <= REL * scale


@pytest.mark.parametrize("dim, order", [(2, 10), (3, 6)])
class TestAgainstTensorGrid:
    def test_inner_product_and_gram(self, dim, order):
        rng = np.random.default_rng(61 + dim)
        space = FockCSpace(1.5, dim, order)
        series = [CPowerSeries(dim, random_terms(rng, dim, 2))
                  for _ in range(4)]
        gram = space.gram(series)
        norms = [math.sqrt(oracle_inner_product(space, f, f).real)
                 for f in series]
        for a, f in enumerate(series):
            for b, g in enumerate(series):
                want = oracle_inner_product(space, f, g)
                scale = norms[a] * norms[b]
                assert close(space.inner_product(f, g), want, scale)
                assert close(gram[a, b], want, scale)

    def test_reproduce(self, dim, order):
        rng = np.random.default_rng(71 + dim)
        space = FockCSpace(2.0, dim, order)
        for _ in range(3):
            f = CPowerSeries(dim, random_terms(rng, dim, 3))
            point = random_point(rng, dim)
            want = oracle_reproduce(space, f, point)
            assert close(space.reproduce(f, point), want, abs(want))

    def test_transform(self, dim, order):
        rng = np.random.default_rng(81 + dim)
        gamma = 1.0
        phi = HermiteCoeffFunctionD(1.0, dim, random_terms(rng, dim, 3))
        for _ in range(3):
            point = random_point(rng, dim)
            want = oracle_transform(gamma, dim, phi, point, order)
            got = rbf_sb_transform_d(gamma, dim, phi, point,
                                     method="quadrature", quad_order=order)
            assert close(got, want, abs(want))


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_basis_orthonormal_beyond_three_coordinates(dim):
    gamma = 1.0
    indices = list(multi_indices(dim, 4))[:13]
    basis = [rbf_basis_series_d(gamma, idx) for idx in indices]
    gram = RBFCSpace(gamma, dim, 16).gram(basis)
    assert np.abs(gram - np.eye(13)).max() < 1e-8


def test_series_checked_against_space():
    space = FockCSpace(1.0, 2, 8)
    with pytest.raises(ValueError, match="C\\^3"):
        space.norm_sq(CPowerSeries(3, (((0, 0, 0), 1.0),)))
    with pytest.raises(TypeError):
        space.norm_sq(rbf_basis_series_d(1.0, (0, 0)))
    with pytest.raises(ValueError, match="dimension"):
        space.reproduce(CPowerSeries(2, (((0, 0), 1.0),)), (0.1, 0.2, 0.3))
