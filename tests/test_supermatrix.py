"""Tests for the sparse supermatrix a ready integral store is served from.

A ready ``ERIStore`` holds the plan's two CSR matrices; the first build
it serves maps them into the store's one slot, and every build is four
sparse mat-vecs, with no plan and no Schwarz matrix.  Served J/K must equal a storeless build to summation order,
be bitwise reproducible across engines (processes) and thread settings,
count every quartet's source once, and never outlive the store content
they were mapped from.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from conftest import assert_jk_close, sha256, supermatrix_arrays
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_schwarz_jk import schwarz_only_jk
from reference_supermatrix import (
    V2Store,
    assemble_supermatrix,
    kernel_blocks,
    write_v2_store,
)
from test_class_batch import rand_basis, rand_density

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water, water_cluster
from repro.integrals import class_batch
from repro.integrals import engine as engine_module
from repro.integrals.engine import MDEngine
from repro.integrals.store import ERIStore, StoreInvalidatedWarning
from repro.runtime.faults import SCFFaultPlan
from repro.scf.fock import build_jk
from repro.scf.hf import RHF


@pytest.fixture
def basis():
    return BasisSet.build(water(), "6-31g")


@pytest.fixture
def warm_dir(tmp_path, basis):
    """A store directory filled and finalized at tau = 1e-11."""
    build_jk(MDEngine(basis, store=tmp_path / "store"), np.eye(basis.nbf))
    return tmp_path / "store"


class TestServedBuilds:
    @given(
        st.integers(0, 2**16), st.floats(-13.0, -6.0),
        st.sampled_from([1, 2]), st.booleans(),
    )
    @settings(max_examples=4, deadline=None)
    def test_served_equals_storeless_on_random_bases(
        self, seed, log_tau, threads, stacked
    ):
        """Mixed s/p/d shells, random tau, one density or a (2, n, n)
        stack: served == storeless <= 1e-12, and two served builds are
        bitwise equal across engines and thread settings."""
        rng = np.random.default_rng(seed)
        tau = 10.0 ** log_tau
        basis = rand_basis(rng, nshells=5)
        n = basis.nbf
        d = (
            np.stack([rand_density(rng, n), rand_density(rng, n)])
            if stacked else rand_density(rng, n)
        )
        direct = MDEngine(basis)
        assume(direct.class_plan(tau).nquartets > 0)
        ref = build_jk(direct, d, tau)
        with tempfile.TemporaryDirectory() as tmp:
            filler = MDEngine(basis, store=tmp)
            build_jk(filler, d, tau, threads=threads)
            served = build_jk(filler, d, tau, threads=threads)
            fresh = MDEngine(basis, store=tmp)
            again = build_jk(fresh, d, tau, threads=3 - threads)
        assert fresh.quartets_computed == 0
        assert fresh.quartets_served_from_store == direct.quartets_computed
        assert fresh.last_jk_worker_stats == []
        scale = max(1.0, np.abs(ref[0]).max(), np.abs(ref[1]).max())
        assert_jk_close(served, ref, 1e-12 * scale)
        assert served[0].shape == d.shape
        for a, b in zip(served, again):
            assert np.array_equal(a, b)

    def test_tighter_tau_refills_once(self, tmp_path, basis):
        """A plan tighter than the manifest tau: the store is refilled at
        the plan's tau, every row computed once, and never again."""
        loose, tight = 1e-3, 1e-11
        d = rand_density(np.random.default_rng(2), basis.nbf)
        build_jk(MDEngine(basis, store=tmp_path), d, loose)
        engine = MDEngine(basis, store=tmp_path)
        nplan = engine.class_plan(tight).nquartets
        assert 0 < engine.integral_store.nblocks < nplan
        with pytest.warns(StoreInvalidatedWarning, match="tau"):
            first = build_jk(engine, d, tight)
        assert engine.quartets_computed == engine.integral_store.nblocks == nplan
        assert engine.quartets_served_from_store == 0
        second = build_jk(engine, d, tight)
        third = build_jk(engine, d, tight)
        assert engine.quartets_computed == nplan
        assert engine.quartets_served_from_store == 2 * nplan
        assert_jk_close(first, build_jk(MDEngine(basis), d, tight))
        assert_jk_close(second, first)
        for a, b in zip(second, third):
            assert np.array_equal(a, b)

    def test_served_plan_never_stacks_kernel_operands(self, warm_dir, basis):
        engine = MDEngine(basis, store=warm_dir)
        build_jk(engine, np.eye(basis.nbf))
        build_jk(engine, np.eye(basis.nbf))
        batches = engine.class_plan(1e-11).batches
        assert all(b._operands is None for b in batches)
        assert engine.quartets_computed == 0

    def test_served_build_draws_its_faults_without_planning(self, warm_dir, basis):
        """A seeded ``scf`` fault state on a served build: one build
        ordinal drawn over the store's rows, nothing planned, nothing
        computed or corrupted; the next computed build draws ordinal 1."""
        engine = MDEngine(basis, store=warm_dir)
        engine.scf_faults = SCFFaultPlan(seed=1, quartet_nan_rate=0.01).activate()
        build_jk(engine, np.eye(basis.nbf))
        assert engine.scf_faults.builds == 1 and engine._class_plan is None
        assert engine.quartets_computed == engine.scf_faults.quartets_corrupted == 0
        engine.detach_store()
        engine.finite_check = True
        build_jk(engine, np.eye(basis.nbf))
        assert engine.scf_faults.builds == 2 and engine.quartets_computed > 0

    def test_one_jk_sample_per_served_build(self, warm_dir, basis):
        from repro.obs import session
        from repro.obs.profile import PHASE_ERI, PHASE_JK, PhaseProfiler

        engine = MDEngine(basis, store=warm_dir)
        build_jk(engine, np.eye(basis.nbf))  # assembles
        prof = PhaseProfiler()
        with session(profiler=prof):
            build_jk(engine, np.eye(basis.nbf))
        assert prof.stats[PHASE_JK].calls == 1
        assert PHASE_ERI not in prof.stats


class TestAgainstV2Oracle:
    """The v3 store maps the matrices the v2 store assembled, bit for bit
    (``tests/reference_supermatrix.py`` keeps the v2 assembly)."""

    @given(st.integers(0, 2**16), st.floats(-13.0, -6.0))
    @settings(max_examples=5, deadline=None)
    def test_mapped_matrices_equal_the_v2_assembly(self, seed, log_tau):
        """Random s/p/d bases, a store filled at ``tau``: the mapped
        M_J / M_K arrays are sha256-equal to the v2 assembly over a v2
        store of the same fill, and every plan row is served."""
        rng = np.random.default_rng(seed)
        basis = rand_basis(rng, nshells=5)
        tau = 10.0 ** log_tau
        oracle = MDEngine(basis)
        assume(oracle.class_plan(tau).nquartets > 0)
        with tempfile.TemporaryDirectory() as tmp, \
                tempfile.TemporaryDirectory() as tmp_v2:
            build_jk(MDEngine(basis, store=tmp), np.eye(basis.nbf), tau)
            warm = MDEngine(basis, store=tmp)
            build_jk(warm, np.eye(basis.nbf), tau)
            v2 = write_v2_store(tmp_v2, basis, tau, kernel_blocks(
                oracle, oracle.class_plan(tau)))
            mj, mk, _ = assemble_supermatrix(
                oracle, oracle.class_plan(tau), V2Store(v2, basis))
        want = [a for m in (mj, mk) for a in (m.data, m.indices, m.indptr)]
        assert [sha256(a) for a in supermatrix_arrays(warm)] == [
            sha256(a) for a in want]
        assert warm.quartets_computed == 0
        assert warm.quartets_served_from_store == oracle.class_plan(tau).nquartets

    def test_looser_plan_reads_nothing_and_refills(
        self, warm_dir, basis, monkeypatch
    ):
        """A plan looser than the store's tau: the store is not read --
        no row the plan screened out is ever served -- but refilled with
        every plan row, computed once; its J/K are those of every plan
        row at that tau, and the next build maps the new store."""
        reads = []
        read = ERIStore.read_stacked
        monkeypatch.setattr(
            ERIStore, "read_stacked", lambda self: reads.append(1) or read(self))
        d = rand_density(np.random.default_rng(6), basis.nbf)
        engine = MDEngine(basis, store=warm_dir)
        stored = engine.integral_store.nblocks
        with pytest.warns(StoreInvalidatedWarning, match="tau"):
            first = build_jk(engine, d, 0.1)
        nplan = engine.class_plan(0.1).nquartets
        assert nplan < stored and reads == []
        assert engine.quartets_computed == engine.integral_store.nblocks == nplan
        assert engine.quartets_served_from_store == 0
        second = build_jk(engine, d, 0.1)
        assert engine.quartets_computed == nplan
        assert engine.quartets_served_from_store == nplan and reads == [1]
        direct = MDEngine(basis)
        reference = schwarz_only_jk(direct, d, direct.class_plan(0.1))
        for a, b in zip(first, reference):
            assert np.array_equal(a, b)
        assert_jk_close(second, first)


class TestLifetime:
    """One supermatrix per store, in the store's one slot, emptied
    whenever the store's readable content changes."""

    def test_attach_and_invalidate_empty_the_slot(self, warm_dir, basis):
        d = np.eye(basis.nbf)
        engine = MDEngine(basis, store=warm_dir)
        store = engine.integral_store
        assert store.supermatrix is None  # mapped on demand
        build_jk(engine, d)
        first = store.supermatrix
        build_jk(engine, d)
        assert store.supermatrix is first
        # re-attaching (the store re-opened under the engine) empties it
        store.open_or_fill()
        assert store.ready and store.supermatrix is None
        build_jk(engine, d)
        assert store.supermatrix is not None and store.supermatrix is not first
        # invalidate(): the next build fills, and the slot stays empty
        # until the build after it maps the new content
        with pytest.warns(UserWarning, match="invalidated"):
            store.invalidate("test")
        assert store.supermatrix is None
        computed = engine.quartets_computed
        build_jk(engine, d)
        assert engine.quartets_computed > computed
        assert store.ready and store.supermatrix is None
        build_jk(engine, d)
        assert store.supermatrix is not None
        # detach_store() (the guard's reference_eri rung): the engine
        # reaches neither the store nor its mapping
        engine.detach_store()
        assert engine.integral_store is None

    def test_newly_armed_verification_reassembles(self, warm_dir, basis):
        d = np.eye(basis.nbf)
        engine = MDEngine(basis, store=warm_dir)
        store = engine.integral_store
        build_jk(engine, d)
        assert not store.supermatrix.verified and store.crc_checks == 0
        store.verify_reads = True
        build_jk(engine, d)
        assert store.supermatrix.verified
        assert store.crc_checks == store.nsegments == 2 * basis.nshells
        store.verify_reads = False  # a verified matrix serves either way
        scrubbed = store.supermatrix
        build_jk(engine, d)
        assert store.supermatrix is scrubbed
        assert store.crc_checks == store.nsegments

    def test_memory_error_leaves_no_half_built_matrix(
        self, warm_dir, basis, monkeypatch
    ):
        d = rand_density(np.random.default_rng(4), basis.nbf)
        engine = MDEngine(basis, store=warm_dir)
        build_jk(engine, d)
        clean = supermatrix_arrays(engine)
        engine.integral_store.open_or_fill()  # forces a re-mapping
        real = class_batch._mapped_matrices

        def failing(*args):
            real(*args)
            raise MemoryError("injected allocation failure")

        monkeypatch.setattr(class_batch, "_mapped_matrices", failing)
        served = engine.quartets_served_from_store
        with pytest.raises(MemoryError):
            build_jk(engine, d)
        assert engine.integral_store.supermatrix is None
        assert engine.quartets_served_from_store == served
        monkeypatch.undo()
        build_jk(engine, d)
        for got, want in zip(supermatrix_arrays(engine), clean):
            assert np.array_equal(got, want)


class TestWarmRestart:
    def test_crash_resume_is_bitwise_the_uninterrupted_warm_run(
        self, tmp_path, warm_dir
    ):
        class Killed(Exception):
            pass

        def kill(iteration, energy):
            if iteration == 4:
                raise Killed

        def driver(ckpt, **kw):
            return RHF(
                water(), "6-31g", integral_store=str(warm_dir),
                checkpoint_dir=str(tmp_path / ckpt), **kw,
            )

        ref = driver("a").run()
        with pytest.raises(Killed):
            driver("b", on_iteration=kill).run()
        resumed_driver = driver("b", restart=True)
        res = resumed_driver.run()
        assert resumed_driver.engine.quartets_computed == 0
        assert res.iterations == ref.iterations
        assert res.energy_history == ref.energy_history
        assert np.array_equal(res.fock, ref.fock)
        assert np.array_equal(res.density, ref.density)

    @pytest.mark.parametrize("system", ["water", "water4"])
    def test_ready_store_run_plans_nothing_and_maps_once(
        self, system, tmp_path, monkeypatch
    ):
        """A warm stored RHF serves every build from its store: no class
        plan, no Schwarz matrix, one mapping and zero quartets computed.
        ``water4`` is the stored benchmark's run: (H2O)4/6-31G in its
        seed-0 geometry with checkpoints, integrity checks and the guard."""
        mol, kw = {
            "water": (water(), {}),
            "water4": (water_cluster(4, 1, 1), dict(
                checkpoint_dir=str(tmp_path / "ckpt"), integrity=True, guard=True)),
        }[system]
        basis = BasisSet.build(mol, "6-31g")
        store_dir = tmp_path / "store"
        build_jk(MDEngine(basis, store=store_dir), np.eye(basis.nbf))
        calls = {"plan": 0, "schwarz": 0, "map": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(engine_module, "build_class_plan", "plan")
        counted(engine_module, "schwarz_matrix", "schwarz")
        counted(class_batch, "map_supermatrix", "map")
        rhf = RHF(mol, "6-31g", integral_store=str(store_dir), **kw)
        res = rhf.run()
        assert res.converged and res.iterations > 2
        assert calls == {"plan": 0, "schwarz": 0, "map": 1}
        engine = rhf.engine
        assert engine.quartets_computed == 0
        assert engine.quartets_served_from_store > 0
        assert engine.quartets_served_from_store % engine.integral_store.nblocks == 0
