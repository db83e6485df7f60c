import math

import numpy as np
import pytest
from conftest import random_quaternion

from rbffock import (GramMatrix, Quaternion, build_gram, psd_check,
                     quat_matrix_to_complex, rbf_basis_c,
                     kernel_sum_truncated, rbf_kernel_qslice)


class TestBuildGram:
    def test_single_real_point(self):
        gram = build_gram("rbf-real", {"gamma": 1.0}, [[0.5, -0.2]])
        assert gram.entries.shape == (1, 1)
        assert gram.entries[0, 0] == 1.0

    def test_identical_complex_points_diagonal(self):
        z = 0.3 + 0.8j
        gram = build_gram("rbf-complex", {"gamma": 2.0},
                          np.array([[z], [z]]))
        want = math.exp(4 * 0.64 / 4.0)
        assert gram.entries[0, 0].real == pytest.approx(want, rel=1e-14)
        assert gram.entries[0, 1].real == pytest.approx(want, rel=1e-14)

    def test_real_gram_matches_elementwise_oracle(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-2, 2, (8, 1))
        gram = build_gram("rbf-real", {"gamma": 1.0}, pts)
        for a in range(8):
            for b in range(8):
                want = math.exp(-(pts[a, 0] - pts[b, 0]) ** 2)
                assert gram.entries[a, b] == pytest.approx(want, rel=1e-14)

    def test_quaternionic_gram_hermitian(self):
        rng = np.random.default_rng(42)
        pts = [random_quaternion(rng) for _ in range(4)]
        gram = build_gram("rbf-qslice", {"gamma": 1.0}, pts)
        assert gram.is_quaternionic
        signs = np.array([1.0, -1.0, -1.0, -1.0])
        flipped = signs * np.transpose(gram.entries, (1, 0, 2))
        assert np.abs(gram.entries - flipped).max() == 0.0

    def test_quaternionic_gram_matches_entrywise_loop(self):
        rng = np.random.default_rng(43)
        pts = [random_quaternion(rng, 1.5) for _ in range(5)]
        signs = np.array([1.0, -1.0, -1.0, -1.0])
        raw = [[np.array(rbf_kernel_qslice(1.0, a, b).to_list()) for b in pts]
               for a in pts]
        want = np.array([[0.5 * (raw[a][b] + signs * raw[b][a])
                          for b in range(5)] for a in range(5)])
        got = build_gram("rbf-qslice", {"gamma": 1.0}, pts).entries
        assert got.tobytes() == want.tobytes()

    def test_polynomial_and_exponential(self):
        gram = build_gram("polynomial", {"degree": 2}, [[1.0, 1.0], [0.0, 0.0]])
        assert gram.entries[0, 0] == 9.0
        assert gram.entries[0, 1] == 1.0
        gram = build_gram("exponential", {}, [[1.0], [0.0]])
        assert gram.entries[0, 0] == pytest.approx(math.e, rel=1e-15)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            build_gram("nope", {}, [[0.0]])

    def test_points_hash_tracks_points(self):
        a = build_gram("rbf-real", {"gamma": 1.0}, [[0.0], [1.0]])
        b = build_gram("rbf-real", {"gamma": 1.0}, [[0.0], [1.1]])
        assert a.points_hash != b.points_hash


class TestPsdCheck:
    def test_identity(self):
        gram = GramMatrix(np.eye(3), "precomputed")
        report = psd_check(gram)
        assert report.min_eigenvalue == pytest.approx(1.0, rel=1e-14)
        assert report.psd

    def test_real_gaussian_gram_is_psd(self):
        rng = np.random.default_rng(43)
        pts = rng.uniform(-1.5, 1.5, (16, 3))
        report = psd_check(build_gram("rbf-real", {"gamma": 1.0}, pts),
                           tol=1e-10)
        assert report.min_eigenvalue >= -1e-10
        assert report.psd

    def test_truncated_feature_gram(self):
        # Gram of the truncated kernel sum equals V V^H for the feature
        # matrix V[a, n] = e_n(z_a), hence PSD with rank <= n_terms + 1
        rng = np.random.default_rng(44)
        gamma, n_terms = 1.0, 6
        zs = [complex(a, b) for a, b in rng.uniform(-0.8, 0.8, (5, 2))]
        v = np.array([[rbf_basis_c(gamma, n, z) for n in range(n_terms + 1)]
                      for z in zs])
        feature_gram = v @ np.conj(v.T)
        qs = [Quaternion(z.real, z.imag, 0, 0) for z in zs]
        entries = np.empty((5, 5), dtype=complex)
        for a in range(5):
            for b in range(5):
                k = kernel_sum_truncated(gamma, qs[a], qs[b], n_terms)
                entries[a, b] = complex(k.w, k.x)
        assert np.abs(entries - feature_gram).max() <= 1e-10
        report = psd_check(GramMatrix(0.5 * (entries + np.conj(entries.T)),
                                      "feature"), tol=1e-10)
        assert report.psd

    def test_quaternionic_psd_via_adjoint(self):
        rng = np.random.default_rng(45)
        pts = [random_quaternion(rng, 0.8) for _ in range(5)]
        report = psd_check(build_gram("rbf-qslice", {"gamma": 1.0}, pts),
                           tol=1e-8)
        assert report.size == 5
        assert report.min_eigenvalue >= -1e-8

    def test_non_hermitian_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            psd_check(GramMatrix(bad, "precomputed"))


class TestAdjointRepresentation:
    def test_scalar_one(self):
        chi = quat_matrix_to_complex(np.array([[[1.0, 0, 0, 0]]]))
        assert np.array_equal(chi, np.eye(2))

    def test_unit_j(self):
        chi = quat_matrix_to_complex(np.array([[[0.0, 0, 1, 0]]]))
        assert np.array_equal(chi, np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_homomorphism(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            pmat = rng.uniform(-1, 1, (2, 2, 4))
            qmat = rng.uniform(-1, 1, (2, 2, 4))
            prod = np.zeros((2, 2, 4))
            for a in range(2):
                for b in range(2):
                    acc = Quaternion(0, 0, 0, 0)
                    for c in range(2):
                        acc = acc + (Quaternion(*pmat[a, c])
                                     * Quaternion(*qmat[c, b]))
                    prod[a, b] = acc.to_list()
            lhs = quat_matrix_to_complex(prod)
            rhs = quat_matrix_to_complex(pmat) @ quat_matrix_to_complex(qmat)
            assert np.abs(lhs - rhs).max() <= 1e-13

    def test_hermitian_preserved(self):
        rng = np.random.default_rng(47)
        raw = rng.uniform(-1, 1, (3, 3, 4))
        signs = np.array([1.0, -1.0, -1.0, -1.0])
        herm = 0.5 * (raw + signs * np.transpose(raw, (1, 0, 2)))
        chi = quat_matrix_to_complex(herm)
        assert np.abs(chi - np.conj(chi.T)).max() <= 1e-15

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quat_matrix_to_complex(np.zeros((2, 3, 4)))
