"""Tests for orthogonalization, density formation, and DIIS."""

import numpy as np
import pytest

from repro.scf.diis import DIIS, MAX_VECTORS
from repro.scf.guess import core_guess
from repro.scf.orthogonalization import (
    density_from_coefficients,
    density_from_fock,
    orthogonalizer,
)


def random_spd(n, seed=0, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vals = np.linspace(1.0, cond, n)
    return (q * vals) @ q.T


class TestOrthogonalizer:
    def test_whitens_overlap(self):
        s = random_spd(8, seed=1)
        x = orthogonalizer(s)
        assert np.allclose(x.T @ s @ x, np.eye(8), atol=1e-10)

    def test_symmetric_for_identity(self):
        x = orthogonalizer(np.eye(5))
        assert np.allclose(x, np.eye(5))

    def test_canonical_drops_dependencies(self):
        s = random_spd(6, seed=2)
        # make it nearly singular
        s[:, -1] = s[:, 0] * (1 + 1e-12)
        s[-1, :] = s[:, -1]
        s = 0.5 * (s + s.T)
        x = orthogonalizer(s, threshold=1e-8)
        assert x.shape[1] < 6
        assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-8)

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            orthogonalizer(-np.eye(3))

    def test_asymmetric_rejected(self):
        s = np.eye(4)
        s[0, 1] = 0.5
        with pytest.raises(ValueError):
            orthogonalizer(s)


class TestDensityFormation:
    def test_density_rank(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(7, 3))
        d = density_from_coefficients(c)
        assert np.linalg.matrix_rank(d) == 3

    def test_density_from_fock_idempotent_in_ortho_basis(self):
        f = random_spd(6, seed=4) - 2 * np.eye(6)
        x = np.eye(6)
        d, eps, c = density_from_fock(f, x, 2)
        assert np.allclose(d @ d, d, atol=1e-10)
        assert np.all(np.diff(eps) >= -1e-12)

    def test_aufbau(self):
        """Occupied orbitals are the lowest-eigenvalue ones."""
        f = np.diag([3.0, -1.0, 2.0, -5.0])
        d, _eps, _c = density_from_fock(f, np.eye(4), 2)
        # occupying eigvecs of eigenvalues -5 and -1: e_1 and e_3
        assert d[1, 1] == pytest.approx(1.0)
        assert d[3, 3] == pytest.approx(1.0)
        assert d[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_nocc_rejected(self):
        with pytest.raises(ValueError):
            density_from_fock(np.eye(3), np.eye(3), 0)


class TestGuesses:
    def test_core_guess_trace(self, water_matrices):
        s, h, x, _d = water_matrices
        assert np.trace(core_guess(h, x, 5) @ s) == pytest.approx(5.0, abs=1e-8)


class TestDIIS:
    def test_single_vector_passthrough(self):
        diis = DIIS()
        f = np.eye(3)
        diis.push(f, np.ones((3, 3)))
        assert np.allclose(diis.extrapolate(), f)

    def test_empty_raises(self):
        with pytest.raises(RuntimeError):
            DIIS().extrapolate()

    def test_window_limit(self):
        diis = DIIS()
        for i in range(10):
            diis.push(np.eye(2) * i, np.eye(2) * (10 - i))
        assert diis.size == MAX_VECTORS

    def test_exact_cancellation(self):
        """Two errors e and -e: DIIS finds the zero-error combination."""
        diis = DIIS()
        e = np.array([[1.0, 0.0], [0.0, -1.0]])
        f1, f2 = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        diis.push(f1, e)
        diis.push(f2, -e)
        out = diis.extrapolate()
        assert np.allclose(out, 0.5 * (f1 + f2), atol=1e-10)

    def test_error_vector_antisymmetric_source(self, water_matrices):
        s, h, x, d = water_matrices
        err = DIIS.error_vector(h, d, s, x)
        assert np.allclose(err, -err.T, atol=1e-10)
