"""Tests for SUMMA and distributed purification."""

import numpy as np
import pytest

from repro.dist.purification_dist import (
    purification_time_model,
    purify_distributed,
)
from repro.dist.summa import distributed_trace, summa_multiply, summa_time_model
from repro.runtime.ga import GlobalArray, block_bounds
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats
from repro.scf.purification import purify


def make_ga(stats, m, grid):
    n = m.shape[0]
    rb = block_bounds(n, grid)
    ga = GlobalArray(stats, n, m.shape[1], rb, block_bounds(m.shape[1], grid))
    ga.load(m)
    return ga


class TestSUMMA:
    @pytest.mark.parametrize("grid", [1, 2, 3])
    def test_matches_numpy(self, grid):
        rng = np.random.default_rng(0)
        n = 12
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        stats = CommStats(grid * grid, LONESTAR)
        ga_a, ga_b = make_ga(stats, a, grid), make_ga(stats, b, grid)
        c = summa_multiply(ga_a, ga_b, stats, LONESTAR)
        assert np.allclose(c.to_numpy(), a @ b, atol=1e-10)

    def test_charges_time(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(8, 8))
        stats = CommStats(4, LONESTAR)
        ga_a = make_ga(stats, a, 2)
        summa_multiply(ga_a, ga_a, stats, LONESTAR)
        assert np.all(stats.clock > 0)
        assert np.all(stats.comp_time > 0)

    def test_dimension_mismatch_rejected(self):
        stats = CommStats(1, LONESTAR)
        a = make_ga(stats, np.ones((4, 4)), 1)
        b = make_ga(stats, np.ones((5, 5)), 1)
        with pytest.raises(ValueError):
            summa_multiply(a, b, stats, LONESTAR)

    def test_trace(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(10, 10))
        stats = CommStats(4, LONESTAR)
        ga = make_ga(stats, m, 2)
        assert distributed_trace(ga, stats, LONESTAR) == pytest.approx(np.trace(m))

    def test_time_model_scales(self):
        t1 = summa_time_model(1000, 1, LONESTAR)
        t16 = summa_time_model(1000, 16, LONESTAR)
        assert t16 < t1

    def test_time_model_validation(self):
        with pytest.raises(ValueError):
            summa_time_model(0, 4, LONESTAR)


class TestDistributedPurification:
    def test_matches_serial(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(16, 16))
        f = 0.5 * (f + f.T)
        nocc = 6
        serial = purify(f, nocc)
        dist = purify_distributed(f, nocc, nproc=4, config=LONESTAR)
        assert serial.converged and dist.converged
        assert np.allclose(dist.density, serial.density, atol=1e-8)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(12, 12))
        f = 0.5 * (f + f.T)
        res = purify_distributed(f, 5, nproc=9, config=LONESTAR)
        assert np.trace(res.density) == pytest.approx(5.0, abs=1e-7)

    def test_accounting_nonzero(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(10, 10))
        f = 0.5 * (f + f.T)
        res = purify_distributed(f, 4, nproc=4, config=LONESTAR)
        assert res.time > 0
        assert res.stats.calls.sum() > 0

    def test_time_model_paper_range(self):
        """Table IX: purification is a small share at paper scale."""
        # C150H30: nbf = 2250; 1..324 nodes
        for nproc in (1, 16, 324):
            t = purification_time_model(2250, nproc, LONESTAR, iterations=45)
            assert 0 < t < 300
