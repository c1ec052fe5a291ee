"""Tests for the sparse supermatrix a ready integral store is served from.

A ready ``ERIStore`` holds the plan's folded supermatrix, P and K' on one
CSR pattern; the first build it serves maps them into the store's one
slot, and every build is sparse mat-vecs (two for an RHF's G, four for J
and K), with no plan and no Schwarz matrix.  Served J/K must equal a
storeless build to summation order, be bitwise reproducible across
engines (processes) and thread settings,
count every quartet's source once, and never outlive the store content
they were mapped from.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from conftest import assert_jk_close, supermatrix_arrays
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_fold import assert_fold_matches, reference_fold, unfolded_jk
from reference_operands import reference_compute_rows
from reference_pair_matrices import reference_pair_matrices
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
    @given(st.integers(0, 2**16), st.floats(-13.0, -6.0), st.booleans())
    @settings(max_examples=4, deadline=None)
    def test_served_equals_storeless_on_random_bases(self, seed, log_tau, stacked):
        """Mixed s/p/d shells, random tau, one density or a (2, n, n)
        stack: served == storeless <= 1e-12, and two served builds are
        bitwise equal across engines."""
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
            build_jk(filler, d, tau)
            served = build_jk(filler, d, tau)
            fresh = MDEngine(basis, store=tmp)
            again = build_jk(fresh, d, tau)
        assert fresh.quartets_computed == 0
        assert fresh.quartets_served_from_store == direct.quartets_computed
        scale = max(1.0, np.abs(ref[0]).max(), np.abs(ref[1]).max())
        assert_jk_close(served, ref, 1e-12 * scale)
        assert served[0].shape == d.shape
        for a, b in zip(served, again):
            assert np.array_equal(a, b)

    def test_tighter_tau_refills_once(self, tmp_path, basis):
        """A plan tighter than the manifest tau: the store is refilled at
        the plan's tau, every row computed once, and never again; the
        refilling build is served from the refill, as the next ones are."""
        loose, tight = 1e-3, 1e-11
        d = rand_density(np.random.default_rng(2), basis.nbf)
        build_jk(MDEngine(basis, store=tmp_path), d, loose)
        engine = MDEngine(basis, store=tmp_path)
        nplan = engine.class_plan(tight).nquartets
        assert 0 < engine.integral_store.nblocks < nplan
        with pytest.warns(StoreInvalidatedWarning, match="tau"):
            first = build_jk(engine, d, tight)
        assert engine.quartets_computed == engine.integral_store.nblocks == nplan
        assert engine.quartets_served_from_store == nplan
        second = build_jk(engine, d, tight)
        third = build_jk(engine, d, tight)
        assert engine.quartets_computed == nplan
        assert engine.quartets_served_from_store == 3 * nplan
        assert_jk_close(first, build_jk(MDEngine(basis), d, tight))
        for a, b, c in zip(first, second, third):
            assert np.array_equal(a, b) and np.array_equal(b, c)

    def test_served_plan_never_stacks_kernel_operands(self, warm_dir, basis):
        engine = MDEngine(basis, store=warm_dir)
        build_jk(engine, np.eye(basis.nbf))
        build_jk(engine, np.eye(basis.nbf))
        assert engine.pair_cache.pairs_built == 0  # nothing to stack
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
    """The v4 store maps the COO fold of the matrices the v2 store
    assembled, bit for bit (``tests/reference_supermatrix.py`` keeps the
    v2 assembly, ``tests/reference_fold.py`` the fold)."""

    @given(st.integers(0, 2**16), st.floats(-13.0, -6.0))
    @settings(max_examples=5, deadline=None)
    def test_mapped_matrices_equal_the_v2_assembly(self, seed, log_tau):
        """Random s/p/d bases (pure and Cartesian d), a store filled at
        ``tau``: the mapped P / K' arrays are the COO fold of the v2
        assembly's M_J / M_K over a v2 store of the same fill (pattern
        bitwise, values to summation order), every plan row is served, and
        for a random symmetric D the served G is ``2J - K`` and J, K are
        the four unfolded mat-vecs' to summation order."""
        rng = np.random.default_rng(seed)
        basis = rand_basis(rng, nshells=5)
        tau = 10.0 ** log_tau
        d = rand_density(rng, basis.nbf)
        oracle = MDEngine(basis)
        assume(oracle.class_plan(tau).nquartets > 0)
        with tempfile.TemporaryDirectory() as tmp, \
                tempfile.TemporaryDirectory() as tmp_v2:
            build_jk(MDEngine(basis, store=tmp), np.eye(basis.nbf), tau)
            warm = MDEngine(basis, store=tmp)
            j, k = build_jk(warm, d, tau)
            g, none = class_batch.jk_from_plan(warm, d, tau, g_only=True)
            v2 = write_v2_store(tmp_v2, basis, tau, kernel_blocks(
                oracle, oracle.class_plan(tau)))
            mj, mk, _ = assemble_supermatrix(
                oracle, oracle.class_plan(tau), V2Store(v2, basis))
        assert_fold_matches(class_batch.Folded(*supermatrix_arrays(warm)), basis, mj, mk)
        ref = unfolded_jk(mj, mk, d)
        scale = max(1.0, *(np.abs(m).max() for m in ref))
        assert none is None and np.abs(g - (2.0 * ref[0] - ref[1])).max() <= 1e-12 * scale
        assert_jk_close((j, k), ref, 1e-12 * scale)
        assert warm.quartets_computed == 0
        assert warm.quartets_served_from_store == 2 * oracle.class_plan(tau).nquartets

    def test_looser_plan_reads_nothing_and_refills(
        self, warm_dir, basis, monkeypatch
    ):
        """A plan looser than the store's tau: the store is not read --
        no row the plan screened out is ever served -- but refilled with
        every plan row, computed once.  The one read is of the file the
        refill just wrote, which serves this build and the next; its J/K
        are those of every plan row at that tau."""
        reads = []
        read = ERIStore.read_stacked
        monkeypatch.setattr(
            ERIStore, "read_stacked",
            lambda self: reads.append(self.nblocks) or read(self))
        d = rand_density(np.random.default_rng(6), basis.nbf)
        engine = MDEngine(basis, store=warm_dir)
        stored = engine.integral_store.nblocks
        with pytest.warns(StoreInvalidatedWarning, match="tau"):
            first = build_jk(engine, d, 0.1)
        nplan = engine.class_plan(0.1).nquartets
        assert nplan < stored and reads == [nplan]
        assert engine.quartets_computed == engine.integral_store.nblocks == nplan
        assert engine.quartets_served_from_store == nplan
        second = build_jk(engine, d, 0.1)
        assert engine.quartets_computed == nplan
        assert engine.quartets_served_from_store == 2 * nplan and reads == [nplan]
        direct = MDEngine(basis)
        assert_jk_close(first, schwarz_only_jk(direct, d, direct.class_plan(0.1)))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def _random_flushes(rng, members, rows):
    """Weighted blocks ``((batch, rows), g)`` of a plan as a fill's
    flushes ``(members, parts)``: only the plan ``rows`` (``None``: all),
    each member cut at random, the parts shuffled and runs of one shape
    joined at random."""
    parts = []
    for (batch, at), g in members:
        if rows is not None:
            keep = np.isin(batch.row0 + at, rows)
            at, g = at[keep], g[keep]
        cuts = [0, *np.sort(rng.integers(0, len(at) + 1, size=2)), len(at)]
        parts += [((batch, at[lo:hi]), g[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    flushes = []
    for i in rng.permutation(len(parts)):
        member, g = parts[i]
        if flushes and flushes[-1][0][0][0].dims == member[0].dims and rng.random() < 0.5:
            flushes[-1][0].append(member)
            flushes[-1][1].append(g)
        else:
            flushes.append(([member], [g]))
    return flushes


class TestFillAgainstReplacedCode:
    """A fill's kernel blocks and CSR arrays are bitwise what the code they
    replaced made: the per-class operand copies
    (``tests/reference_operands.py``), and the COO -> CSR assembly
    (``tests/reference_pair_matrices.py``) folded by the COO fold
    (``tests/reference_fold.py``)."""

    @given(st.integers(0, 2**16), st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_blocks_and_csr_equal_the_replaced_code(self, seed, zeros):
        """Random s/p/d bases (pure and Cartesian d), every canonical
        quartet (M = N and P = Q among them): each chunk's blocks equal
        the per-class sweep's, and a :class:`SlotFill`'s P / K' / indices /
        indptr, dtypes included, the COO fold of SciPy's -- over every row and over a
        random subset (a CRC rescue's), the flushes cut and shuffled at
        random; with ``zeros``, of blocks with exact zeros and (P = Q) K
        views that cancel exactly."""
        rng = np.random.default_rng(seed)
        basis = rand_basis(rng, nshells=4)
        plan = MDEngine(basis).class_plan(0.0)
        members = []
        for chunk in plan.chunks():
            got = class_batch.compute_class_rows(chunk)
            for a, b in zip(got, reference_compute_rows(basis, chunk)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            for (batch, rows), blocks in zip(chunk, got):
                q = batch.quartets[rows]
                g = blocks * batch.weights[rows].reshape(-1, 1, 1, 1, 1)
                if zeros:
                    g[rng.random(g.shape) < 0.2] = 0.0
                    same = q[:, 2] == q[:, 3]
                    if same.any():
                        g[same] -= g[same].swapaxes(3, 4)
                members.append(((batch, rows), g))
        quartets = np.concatenate([b.quartets for b in plan.batches])
        assert (quartets[:, 0] == quartets[:, 1]).any()
        assert (quartets[:, 2] == quartets[:, 3]).any()
        subset = np.flatnonzero(rng.random(plan.nquartets) < 0.4)
        for rows in (None, subset):
            fill = class_batch.SlotFill(basis, plan, rows)
            pieces = []
            for flush, parts in _random_flushes(rng, members, rows):
                fill.write(flush, parts)
                pieces.append((np.concatenate([b.quartets[r] for b, r in flush]),
                               np.concatenate(parts)))
            assert_fold_matches(fill.folded(), basis, *reference_pair_matrices(basis, pieces))

    @given(st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_a_segment_folds_from_its_shells_rows(self, seed):
        """Every position folded into segment A (the rows ``(a, x)``) takes
        its terms from plan rows whose first shell is A: the COO fold of A's
        rows alone lies in segment A, and the fill of A's rows alone (a CRC
        rescue) is bitwise the whole fill's segment A."""
        rng = np.random.default_rng(seed)
        basis = rand_basis(rng, nshells=4)
        engine = MDEngine(basis)
        plan = engine.class_plan(0.0)
        pieces = [(q, g * class_batch.orbit_weights(q).reshape(-1, 1, 1, 1, 1))
                  for q, g in kernel_blocks(engine, plan)]
        whole, _ = class_batch._filled(engine, plan, None, None)
        first = np.concatenate([b.quartets[:, 0] for b in plan.batches])
        cuts = basis.offsets * basis.nbf
        for shell, (r0, r1) in enumerate(zip(cuts[:-1], cuts[1:])):
            mine = reference_pair_matrices(
                basis, [(q[q[:, 0] == shell], g[q[:, 0] == shell]) for q, g in pieces])
            folded, _ = reference_fold(basis, *mine)
            assert folded.indptr[r0] == 0 and folded.indptr[r1] == len(folded.p)
            part, _ = class_batch._filled(
                engine, plan, np.flatnonzero(first == shell), None)
            assert_fold_matches(part, basis, *mine)
            lo, hi = whole.indptr[r0], whole.indptr[r1]
            assert np.array_equal(part.indptr[r0:r1 + 1], whole.indptr[r0:r1 + 1] - lo)
            for a, b in zip(part[:3], whole[:3]):
                assert np.array_equal(a, b[lo:hi])

    def test_no_blocks_give_empty_matrices(self, basis):
        plan = class_batch.build_class_plan(basis, None, np.zeros((0, 4), int))
        assert_fold_matches(class_batch.SlotFill(basis, plan, None).folded(), basis,
                            *reference_pair_matrices(basis, []))

    def test_repeated_blocks_are_refused(self, basis):
        plan = class_batch.build_class_plan(basis, None, [(1, 0, 1, 0), (1, 0, 1, 0)])
        with pytest.raises(ValueError, match="distinct"):
            class_batch.SlotFill(basis, plan, None)

    def test_a_cold_fill_holds_its_matrices_once(self, tmp_path):
        """The ``tracemalloc`` peak of a cold (H2O)3/6-31G fill, planned
        first, stays at or under the plan's bytes + the final CSR bytes +
        one :data:`MAX_STAGE_WORK` stage: the fill writes each block into
        its slot, never holding its blocks, a full-size copy and the
        squeezed matrices at once (that assembly peaked at 14.7 MiB
        against this 12.1 MiB bound; at (H2O)2 the kernel's temporaries
        set the peak either way)."""
        basis = BasisSet.build(water_cluster(3, 1, 1), "6-31g")
        engine = MDEngine(basis, store=tmp_path / "store")
        plan = engine.class_plan(1e-11)
        tracemalloc.start()
        try:
            build_jk(engine, np.eye(basis.nbf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(
            a.nbytes for part in [*plan.batches, *plan.groups]
            for a in vars(part).values() if isinstance(a, np.ndarray)
        )
        bound = held + engine.integral_store.nbytes + 8 * class_batch.MAX_STAGE_WORK
        assert peak <= bound, (peak / 2**20, bound / 2**20)

    def test_a_fill_maps_its_file_with_its_arrays_released(
        self, tmp_path, monkeypatch
    ):
        """The build that fills a user store is served from the file it
        wrote, and maps it with the fill's CSR arrays already released:
        the heap never holds the matrices beside their mapping."""
        basis = BasisSet.build(water_cluster(2, 1, 1), "6-31g")
        engine = MDEngine(basis, store=tmp_path / "store")
        engine.class_plan(1e-11)
        read, traced = ERIStore.read_stacked, []

        def read_stacked(self):
            traced.append(tracemalloc.get_traced_memory()[0])
            return read(self)

        monkeypatch.setattr(ERIStore, "read_stacked", read_stacked)
        tracemalloc.start()
        try:
            build_jk(engine, np.eye(basis.nbf))
        finally:
            tracemalloc.stop()
        nbytes = engine.integral_store.nbytes
        assert len(traced) == 1 and traced[0] < nbytes / 4, (traced, nbytes)


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
        # invalidate(): the next build fills, and maps the new content
        # into the slot it serves from
        with pytest.warns(UserWarning, match="invalidated"):
            store.invalidate("test")
        assert store.supermatrix is None
        computed = engine.quartets_computed
        build_jk(engine, d)
        assert engine.quartets_computed > computed
        refilled = store.supermatrix
        assert store.ready and refilled is not None and refilled is not first
        build_jk(engine, d)
        assert store.supermatrix is refilled
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
        assert store.crc_checks == store.nsegments == basis.nshells
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

    def test_warm_run_expands_no_pair_data(self, tmp_path):
        """S, T and V take their own pass: a warm stored RHF, which plans
        nothing and builds no Schwarz matrix, expands no ERI pair data."""
        basis = BasisSet.build(water(), "6-31g")
        build_jk(MDEngine(basis, store=tmp_path / "store"), np.eye(basis.nbf))
        rhf = RHF(water(), "6-31g", integral_store=str(tmp_path / "store"))
        assert rhf.run().converged
        assert rhf.engine.quartets_computed == 0
        assert rhf.engine.pair_cache.pairs_built == 0

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
