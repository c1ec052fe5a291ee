"""Tests for incremental (delta-density) Fock construction."""

import numpy as np
import pytest

from repro.chem.builders import h2, water
from repro.integrals.engine import MDEngine
from repro.scf.fock import fock_matrix
from repro.scf.hf import RHF
from repro.scf.incremental import IncrementalFockBuilder


class TestIncrementalFock:
    def test_first_call_matches_full_build(self, water_engine, water_matrices):
        _s, h, _x, d = water_matrices
        inc = IncrementalFockBuilder(MDEngine(water_engine.basis), tau=1e-11)
        f = inc.fock(h, d)
        assert np.allclose(f, fock_matrix(water_engine, h, d, 1e-11), atol=1e-12)

    def test_incremental_matches_full_along_scf_path(
        self, water_engine, water_matrices
    ):
        """Fock matrices along a mock density sequence stay accurate."""
        _s, h, _x, d = water_matrices
        rng = np.random.default_rng(4)
        eng = MDEngine(water_engine.basis)
        inc = IncrementalFockBuilder(eng, tau=1e-13, rebuild_every=100)
        cur = d.copy()
        for step in range(4):
            f_inc = inc.fock(h, cur)
            f_ref = fock_matrix(water_engine, h, cur, 1e-13)
            assert np.allclose(f_inc, f_ref, atol=1e-8), f"step {step}"
            bump = rng.normal(size=cur.shape) * (0.01 / (step + 1))
            cur = cur + 0.5 * (bump + bump.T)

    def test_small_delta_computes_fewer_quartets(
        self, water_engine, water_matrices
    ):
        _s, h, _x, d = water_matrices
        eng = MDEngine(water_engine.basis)
        inc = IncrementalFockBuilder(eng, tau=1e-8, rebuild_every=100)
        inc.fock(h, d)
        # near-converged step: tiny density change
        inc.fock(h, d + 1e-9 * np.eye(d.shape[0]))
        full_quartets, delta_quartets = inc.history
        assert delta_quartets < 0.2 * full_quartets

    def test_identical_density_free(self, water_engine, water_matrices):
        _s, h, _x, d = water_matrices
        eng = MDEngine(water_engine.basis)
        inc = IncrementalFockBuilder(eng, tau=1e-11, rebuild_every=100)
        f1 = inc.fock(h, d)
        f2 = inc.fock(h, d.copy())
        assert np.allclose(f1, f2, atol=1e-14)
        assert inc.history[1] == 0

    def test_rebuild_every_forces_full(self, water_engine, water_matrices):
        _s, h, _x, d = water_matrices
        eng = MDEngine(water_engine.basis)
        inc = IncrementalFockBuilder(eng, tau=1e-11, rebuild_every=2)
        inc.fock(h, d)  # full (count 0)
        inc.fock(h, d)  # incremental (count 1)
        inc.fock(h, d)  # full again (count 2 % 2 == 0)
        assert inc.history[2] == inc.history[0]

    def test_reset(self, water_engine, water_matrices):
        _s, h, _x, d = water_matrices
        eng = MDEngine(water_engine.basis)
        inc = IncrementalFockBuilder(eng, tau=1e-11)
        inc.fock(h, d)
        inc.reset()
        f = inc.fock(h, d)
        assert np.allclose(f, fock_matrix(water_engine, h, d, 1e-11), atol=1e-12)


class TestIncrementalRHF:
    def test_same_energy_as_standard(self):
        e_std = RHF(h2(0.7414)).run().energy
        e_inc = RHF(h2(0.7414), incremental=True).run().energy
        assert e_inc == pytest.approx(e_std, abs=1e-8)

    def test_water_incremental(self):
        e_std = RHF(water()).run().energy
        e_inc = RHF(water(), incremental=True).run().energy
        assert e_inc == pytest.approx(e_std, abs=1e-6)
