"""Tests for serial density purification (Sec IV-E)."""

import numpy as np
import pytest

from repro.scf.orthogonalization import density_from_fock
from repro.scf.purification import (
    canonical_step,
    initial_density,
    purify,
)


def random_fock(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


class TestInitialDensity:
    def test_trace(self):
        f = random_fock(10, 1)
        for nocc in (1, 3, 7, 10):
            d0 = initial_density(f, nocc)
            assert np.trace(d0) == pytest.approx(nocc, abs=1e-10)

    def test_spectrum_in_unit_interval(self):
        f = random_fock(12, 2)
        vals = np.linalg.eigvalsh(initial_density(f, 5))
        assert vals.min() > -1e-12
        assert vals.max() < 1 + 1e-12

    def test_bad_nocc_rejected(self):
        with pytest.raises(ValueError):
            initial_density(random_fock(4), 5)


class TestSteps:
    def test_canonical_preserves_trace(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        d = (q * rng.uniform(0.05, 0.95, 8)) @ q.T
        d2 = canonical_step(d)
        assert np.trace(d2) == pytest.approx(np.trace(d), abs=1e-9)


class TestPurify:
    @pytest.mark.parametrize("nocc", [2, 5])
    def test_matches_diagonalization(self, nocc):
        """Purified density == aufbau projector when a gap exists."""
        f = random_fock(10, seed=7)
        res = purify(f, nocc)
        assert res.converged
        d_ref, _e, _c = density_from_fock(f, np.eye(10), nocc)
        assert np.allclose(res.density, d_ref, atol=1e-8)

    def test_idempotency_and_trace(self):
        f = random_fock(14, seed=8)
        res = purify(f, 6)
        d = res.density
        assert np.allclose(d @ d, d, atol=1e-8)
        assert np.trace(d) == pytest.approx(6.0, abs=1e-8)

    def test_history_monotone_tail(self):
        f = random_fock(10, seed=9)
        res = purify(f, 4)
        tail = res.history[-4:]
        assert all(a >= b - 1e-14 for a, b in zip(tail, tail[1:]))

    def test_commutes_with_fock(self):
        """[F, D] = 0 for the converged purified density."""
        f = random_fock(9, seed=10)
        d = purify(f, 3).density
        assert np.allclose(f @ d, d @ f, atol=1e-7)

    def test_paper_iteration_count_scale(self):
        """Convergence in tens of iterations (paper: ~45 for C150H30)."""
        f = random_fock(30, seed=11)
        res = purify(f, 12)
        assert res.converged
        assert res.iterations < 100

