"""Numeric-mode distributed Fock builds vs the sequential reference.

These are the reproduction's central correctness tests: the paper's
algorithm (and the NWChem baseline) executed on the simulated runtime
must produce the same Fock matrix as the sequential screened build, for
any process count, with and without stealing and reordering.
"""

import numpy as np
import pytest

from reference_engine import SyntheticERIEngine
from reference_nwchem import nwchem_build
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water_cluster
from repro.fock.gtfock import PrefetchMiss, gtfock_build
from repro.fock.reorder import reorder_basis
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from reference_schwarz_jk import schwarz_only_fock

from repro.obs.flight import CH_TASK_GET
from repro.runtime.faults import FaultPlan
from repro.scf.fock import fock_matrix
from repro.scf.guess import core_guess
from repro.scf.orthogonalization import orthogonalizer


def dimer(spacing: float = 2.8):
    """(H2O)2/6-31G -- p shells, many kernel classes: (engine, Hcore, D)."""
    mol = water_cluster(2, 1, 1, spacing=spacing)
    basis = BasisSet.build(mol, "6-31g")
    h = core_hamiltonian(basis)
    d = core_guess(h, orthogonalizer(overlap(basis)), mol.nelectrons // 2)
    return MDEngine(basis), h, d


@pytest.fixture(scope="module")
def water_dimer():
    """The dimer, one engine for every build (one plan, one set of task
    owners), and its reference Fock matrix: every Schwarz survivor, as
    the numeric builds contract every row they own (``build_jk`` also
    drops the rows whose sigma sigma |D| is below tau)."""
    engine, h, d = dimer()
    return engine, h, d, schwarz_only_fock(engine, h, d, 1e-11)


def asymmetric(d):
    out = d.copy()
    out[np.triu_indices_from(out, 1)] += 0.1
    return out


class TestGTFockNumeric:
    @pytest.mark.parametrize("nproc", [1, 2, 4, 6, 9])
    def test_matches_reference(
        self, methane_engine, methane_matrices, methane_fock_reference, nproc
    ):
        _s, h, _x, d = methane_matrices
        res = gtfock_build(MDEngine(methane_engine.basis), h, d, nproc, 1e-11)
        assert np.allclose(res.fock, methane_fock_reference, atol=1e-11)

    def test_with_reordering(self, methane_mol, methane_engine):
        """Reordered-basis build maps back to the reference Fock."""
        from repro.integrals.oneelec import core_hamiltonian, overlap
        from repro.scf.guess import core_guess
        from repro.scf.orthogonalization import orthogonalizer

        rb = reorder_basis(methane_engine.basis, cell_size=2.0)
        h = core_hamiltonian(rb)
        s = overlap(rb)
        x = orthogonalizer(s)
        d = core_guess(h, x, methane_mol.nelectrons // 2)
        eng = MDEngine(rb)
        res = gtfock_build(eng, h, d, 4, 1e-11)
        assert np.allclose(res.fock, fock_matrix(eng, h, d, 1e-11), atol=1e-11)

    def test_synthetic_engine_larger_grid(self, synthetic_engine, synthetic_density):
        """Distributed == sequential on the 19-shell synthetic system."""
        eng = synthetic_engine
        h = np.zeros((eng.basis.nbf,) * 2)
        ref = fock_matrix(eng, h, synthetic_density, 1e-12)
        for nproc in (4, 9, 16):
            res = gtfock_build(
                SyntheticERIEngine(eng.basis), h, synthetic_density, nproc, 1e-12
            )
            assert np.allclose(res.fock, ref, atol=1e-10)

    def test_stealing_occurs_with_imbalance(self, synthetic_engine, synthetic_density):
        eng = SyntheticERIEngine(synthetic_engine.basis)
        h = np.zeros((eng.basis.nbf,) * 2)
        res = gtfock_build(eng, h, synthetic_density, 9, 1e-12)
        # synthetic alkane tasks are uneven enough that someone steals
        assert res.outcome.steals

    def test_comm_accounted(self, methane_engine, methane_matrices):
        _s, h, _x, d = methane_matrices
        res = gtfock_build(MDEngine(methane_engine.basis), h, d, 4, 1e-11)
        assert res.stats.calls_per_process() > 0
        assert res.stats.volume_mb_per_process() > 0

    def test_prefetch_miss_detection(
        self, methane_engine, methane_matrices, monkeypatch
    ):
        """Sabotaged fetch boxes must be caught, proving reads are checked."""
        import repro.fock.gtfock as g

        _s, h, _x, d = methane_matrices
        original = g.rank_fetch_boxes

        def sabotaged(screen, part):
            boxes = original(screen, part)
            boxes[:, 2] = boxes[:, 0]  # drop the cross region
            return boxes

        monkeypatch.setattr(g, "rank_fetch_boxes", sabotaged)
        with pytest.raises(PrefetchMiss):
            gtfock_build(MDEngine(methane_engine.basis), h, d, 4, 1e-11)

    def test_shape_validation(self, methane_engine):
        with pytest.raises(ValueError):
            gtfock_build(
                MDEngine(methane_engine.basis),
                np.zeros((2, 2)),
                np.zeros((2, 2)),
                2,
            )

    def test_asymmetric_density_rejected(self, methane_engine, methane_matrices):
        _s, h, _x, d = methane_matrices
        with pytest.raises(ValueError, match="symmetric"):
            gtfock_build(MDEngine(methane_engine.basis), h, asymmetric(d), 4)


class TestNWChemNumeric:
    @pytest.mark.parametrize("nproc", [1, 3, 8])
    def test_matches_reference(
        self, methane_engine, methane_matrices, methane_fock_reference, nproc
    ):
        _s, h, _x, d = methane_matrices
        res = nwchem_build(MDEngine(methane_engine.basis), h, d, nproc, 1e-11)
        assert np.allclose(res.fock, methane_fock_reference, atol=1e-11)

    def test_chunk_size_invariant(self, methane_engine, methane_matrices,
                                  methane_fock_reference):
        _s, h, _x, d = methane_matrices
        for chunk in (1, 2, 5):
            res = nwchem_build(
                MDEngine(methane_engine.basis), h, d, 2, 1e-11, chunk=chunk
            )
            assert np.allclose(res.fock, methane_fock_reference, atol=1e-11)

    def test_counter_traffic_scales_with_tasks(self, methane_engine, methane_matrices):
        _s, h, _x, d = methane_matrices
        res1 = nwchem_build(MDEngine(methane_engine.basis), h, d, 2, 1e-11, chunk=5)
        res2 = nwchem_build(MDEngine(methane_engine.basis), h, d, 2, 1e-11, chunk=1)
        assert res2.outcome.counter_accesses > res1.outcome.counter_accesses

    def test_reordered_basis_rejected(self, methane_engine, methane_matrices):
        """Block-row-by-atom distribution requires atom order."""
        rb = reorder_basis(methane_engine.basis, cell_size=1.0)
        if np.all(np.diff(rb.atom_of_shell) >= 0):
            pytest.skip("reordering happened to preserve atom order")
        _s, h, _x, d = methane_matrices
        with pytest.raises(ValueError):
            nwchem_build(MDEngine(rb), h, d, 2, 1e-11)

    def test_gtfock_and_nwchem_agree(self, methane_engine, methane_matrices):
        _s, h, _x, d = methane_matrices
        a = gtfock_build(MDEngine(methane_engine.basis), h, d, 4, 1e-11)
        b = nwchem_build(MDEngine(methane_engine.basis), h, d, 4, 1e-11)
        assert np.allclose(a.fock, b.fock, atol=1e-11)

    def test_asymmetric_density_rejected(self, methane_engine, methane_matrices):
        _s, h, _x, d = methane_matrices
        with pytest.raises(ValueError, match="symmetric"):
            nwchem_build(MDEngine(methane_engine.basis), h, asymmetric(d), 2)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_nonpositive_chunk_rejected(self, methane_engine, methane_matrices,
                                        chunk):
        _s, h, _x, d = methane_matrices
        with pytest.raises(ValueError, match="chunk"):
            nwchem_build(MDEngine(methane_engine.basis), h, d, 2, chunk=chunk)


class TestWaterDimer631G:
    """Both builders on a basis with p shells and many kernel classes,
    equal to the sequential build to summation order."""

    @pytest.mark.parametrize("nproc", [1, 4, 9])
    def test_gtfock_matches_build_jk(self, water_dimer, nproc):
        engine, h, d, ref = water_dimer
        res = gtfock_build(engine, h, d, nproc, 1e-11)
        assert np.abs(res.fock - ref).max() <= 1e-12

    @pytest.mark.parametrize("nproc", [1, 3])
    def test_nwchem_matches_build_jk(self, water_dimer, nproc):
        engine, h, d, ref = water_dimer
        res = nwchem_build(engine, h, d, nproc, 1e-11)
        assert np.abs(res.fock - ref).max() <= 1e-12

    def test_orphans_adopted_with_on_demand_fetches(self):
        """Two waters 8 A apart: a rank's footprint no longer covers its
        neighbours' tasks, so adopting a dead rank's orphans must fetch D
        on demand -- and F is still the fault-free one."""
        engine, h, d = dimer(spacing=8.0)
        clean = gtfock_build(engine, h, d, 4)
        plan = FaultPlan(seed=0, deaths={0: 0.3 * clean.outcome.makespan})
        res = gtfock_build(engine, h, d, 4, faults=plan, screen=clean.screen)
        assert res.outcome.dead_ranks == [0] and res.outcome.recoveries
        assert res.stats.flight.per_rank(CH_TASK_GET, "bytes").sum() > 0
        assert np.abs(res.fock - clean.fock).max() <= 1e-12
