"""Tests for the ERI engine abstraction (MD, OS, synthetic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cartesian
from metamorphic import rigid_motion
from reference_engine import SyntheticERIEngine, quartet_block, quartet_blocks
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane, methane, water
from repro.integrals.engine import MDEngine, OSEngine
from repro.integrals.schwarz import schwarz_model
from repro.scf.fock import build_jk
from repro.scf.hf import RHF


class TestRealEngines:
    def test_md_os_quartets_agree(self, water_basis):
        md = MDEngine(water_basis)
        os_ = OSEngine(water_basis)
        rng = np.random.default_rng(5)
        for _ in range(10):
            m, n, p, q = (int(i) for i in rng.integers(0, water_basis.nshells, 4))
            assert np.allclose(quartet_block(md, m, n, p, q),
                               quartet_block(os_, m, n, p, q), atol=1e-12)

    def test_quartet_counter(self, water_basis):
        eng = MDEngine(water_basis)
        quartet_block(eng, 0, 0, 0, 0)
        quartet_block(eng, 0, 1, 0, 1)
        assert eng.quartets_computed == 2

    def test_schwarz_cached(self, water_engine):
        s1 = water_engine.schwarz()
        s2 = water_engine.schwarz()
        assert s1 is s2

    def test_model_schwarz_option(self, water_basis):
        """The model screen is an option its callers (the CLI, the
        ablations, the bench harness) take by calling ``schwarz_model``
        directly: a symmetric bound that only decays off the diagonal."""
        s = schwarz_model(water_basis)
        assert s.shape == (water_basis.nshells,) * 2
        assert np.all(s >= 0)
        assert np.allclose(s, s.T, rtol=1e-15, atol=0)
        diag = np.diag(s)
        assert np.all(s <= np.sqrt(np.outer(diag, diag)) * (1 + 1e-15))


class TestMDvsOSOnWholePlans:
    """The two kernels share no Boys or Hermite code: every row of a
    screened plan agrees, on rigidly moved molecules in every shipped
    basis shape (s/p, sp families, pure and Cartesian d)."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from([water, methane]),
        st.sampled_from(["sto-3g", "6-31g", "vdz-sim", "vdz-sim-cart"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_every_row_and_jk_agree(self, seed, build, basis_name):
        basis = BasisSet.build(rigid_motion(build(), seed), basis_name.removesuffix("-cart"))
        if basis_name.endswith("-cart"):
            basis = cartesian(basis)
        md, os_ = MDEngine(basis), OSEngine(basis)
        for chunk in md.class_plan(1e-11).chunks():
            for a, b in zip(md.compute_rows(chunk), os_.compute_rows(chunk)):
                assert np.abs(a - b).max() <= 1e-12
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(basis.nbf, basis.nbf))
        d = d + d.T
        for x, y in zip(build_jk(md, d), build_jk(os_, d)):
            assert np.abs(x - y).max() <= 1e-11

    def test_rhf_energy_on_os(self):
        basis = BasisSet.build(water(), "6-31g")
        e_md = RHF(water(), engine=MDEngine(basis)).run().energy
        e_os = RHF(water(), engine=OSEngine(basis)).run().energy
        assert abs(e_md - e_os) <= 1e-10


class TestScreeningThreshold:
    """A NaN threshold passes every ``<=`` test: it used to screen out
    every quartet and "converge" to a wrong energy."""

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0])
    def test_class_plan_rejects_invalid_tau(self, water_basis, tau):
        engine = MDEngine(water_basis)
        with pytest.raises(ValueError, match="tau must be a finite threshold"):
            engine.class_plan(tau)
        assert engine._class_plan is None
        assert engine.class_plan(0.0).nquartets > 0  # tau = 0 keeps all

    def test_rhf_with_nan_tau_fails_loudly(self):
        from repro.scf.hf import RHF

        with pytest.raises(ValueError, match="tau must be a finite threshold"):
            RHF(water(), tau=float("nan")).run()

    @pytest.mark.parametrize("tau", [float("nan"), 0.0, -1.0])
    def test_screening_map_rejects_non_positive_tau(self, water_engine, tau):
        from repro.fock.screening_map import ScreeningMap

        with pytest.raises(ValueError, match="tau must be positive"):
            ScreeningMap(water_engine.basis, water_engine.schwarz(), tau)


class TestSyntheticEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        return SyntheticERIEngine(BasisSet.build(alkane(2), "sto-3g"))

    def test_permutational_symmetries(self, engine):
        blk = quartet_block(engine, 0, 3, 5, 7)
        assert np.allclose(blk, quartet_block(engine, 3, 0, 5, 7).transpose(1, 0, 2, 3))
        assert np.allclose(blk, quartet_block(engine, 0, 3, 7, 5).transpose(0, 1, 3, 2))
        assert np.allclose(blk, quartet_block(engine, 5, 7, 0, 3).transpose(2, 3, 0, 1))

    def test_decays_with_distance(self, engine):
        b = engine.basis
        centers = b.centers
        far = int(np.argmax(np.linalg.norm(centers - centers[0], axis=1)))
        v_near = np.abs(quartet_block(engine, 0, 1, 0, 1)).max()
        v_far = np.abs(quartet_block(engine, 0, far, 0, far)).max()
        assert v_far < v_near

    def test_schwarz_is_true_bound(self, engine):
        sigma = engine.schwarz()
        ns = engine.basis.nshells
        rng = np.random.default_rng(2)
        for _ in range(30):
            m, n, p, q = (int(i) for i in rng.integers(0, ns, 4))
            blk = quartet_block(engine, m, n, p, q)
            assert np.max(np.abs(blk)) <= sigma[m, n] * sigma[p, q] * (1 + 1e-9)

    def test_closed_form_coulomb_matches_contraction(self, engine):
        """J from the closed form == J from explicit dense contraction."""
        n = engine.basis.nbf
        rng = np.random.default_rng(3)
        d = rng.normal(size=(n, n))
        d = d @ d.T / n
        # dense reference via small explicit loop over shell quartets
        j_ref = np.zeros((n, n))
        b = engine.basis
        ns = b.nshells
        blocks = quartet_blocks(engine, np.ndindex(ns, ns, ns, ns))
        for m in range(b.nshells):
            for nn in range(b.nshells):
                for p in range(b.nshells):
                    for q in range(b.nshells):
                        blk = blocks[m, nn, p, q]
                        sm, sn, sp, sq = (b.shell_slice(s) for s in (m, nn, p, q))
                        j_ref[sm, sn] += np.einsum(
                            "abcd,cd->ab", blk, d[sp, sq]
                        )
        assert np.allclose(engine.coulomb_exact(d), j_ref, atol=1e-10)

    def test_closed_form_exchange_matches_contraction(self, engine):
        n = engine.basis.nbf
        rng = np.random.default_rng(4)
        d = rng.normal(size=(n, n))
        d = d @ d.T / n
        k_ref = np.zeros((n, n))
        b = engine.basis
        ns = b.nshells
        blocks = quartet_blocks(engine, np.ndindex(ns, ns, ns, ns))
        for m in range(b.nshells):
            for nn in range(b.nshells):
                for p in range(b.nshells):
                    for q in range(b.nshells):
                        blk = blocks[m, nn, p, q]
                        sm, sn, sp, sq = (b.shell_slice(s) for s in (m, nn, p, q))
                        k_ref[sm, sp] += np.einsum(
                            "abcd,bd->ac", blk, d[sn, sq]
                        )
        assert np.allclose(engine.exchange_exact(d), k_ref, atol=1e-10)

    def test_deterministic(self):
        b = BasisSet.build(water(), "sto-3g")
        e1 = SyntheticERIEngine(b, seed=9)
        e2 = SyntheticERIEngine(b, seed=9)
        assert np.allclose(quartet_block(e1, 0, 1, 2, 3), quartet_block(e2, 0, 1, 2, 3))
