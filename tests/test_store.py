"""Tests for the memory-mapped stored-integral mode (conventional SCF).

A store must round-trip blocks bitwise across processes (simulated by
fresh engines attaching to the same directory), refuse to serve a
mismatched basis, record honest provenance, and give SCF iterations
>= 2 zero ERI recomputation -- verified by engine counters.  A ready
store is contracted as a sparse supermatrix, so the bitwise property
lives on the stored blocks (``assert_store_holds_kernel_bits``) and on
served-vs-served builds; served vs direct J/K agree to summation order.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import threading
from datetime import datetime

import numpy as np
import pytest
from conftest import assert_jk_close, assert_store_holds_kernel_bits, sha256
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_fold import write_v3_store
from reference_supermatrix import assemble_supermatrix

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water
from repro.chem.molecule import Molecule
from repro.integrals.class_batch import SlotFill, build_class_plan
from repro.integrals.engine import MDEngine
from repro.integrals.store import (
    STORE_VERSION,
    ERIStore,
    StoreInvalidatedWarning,
    audit_store_dir,
    basis_fingerprint,
)
from repro.scf.fock import build_jk
from repro.scf.hf import RHF
from repro.scf.uhf import UHF


def rand_density(rng, n):
    d = rng.normal(size=(n, n))
    return (d + d.T) / 2.0


@pytest.fixture
def sto3g_basis():
    return BasisSet.build(water(), "sto-3g")


class TestStoreLifecycle:
    def test_fill_finalize_then_zero_recompute(self, tmp_path, sto3g_basis):
        """The filling build is served from the file it wrote, as every
        later build is: bitwise the next build's J/K, and the direct
        build's to summation order."""
        rng = np.random.default_rng(3)
        d = rand_density(rng, sto3g_basis.nbf)
        engine = MDEngine(sto3g_basis, store=tmp_path / "store")
        assert engine.integral_store.filling
        j1, k1 = build_jk(engine, d)
        assert engine.integral_store.ready
        computed = engine.quartets_computed
        assert computed > 0
        assert engine.quartets_served_from_store == computed
        j2, k2 = build_jk(engine, d)
        assert engine.quartets_computed == computed
        assert engine.quartets_served_from_store == 2 * computed
        assert_store_holds_kernel_bits(engine)
        assert np.array_equal(j1, j2)
        assert np.array_equal(k1, k2)
        assert_jk_close((j1, k1), build_jk(MDEngine(sto3g_basis), d))
        j3, k3 = build_jk(engine, d)
        assert engine.quartets_served_from_store == 3 * computed
        assert np.array_equal(j2, j3)
        assert np.array_equal(k2, k3)

    def test_bitwise_round_trip_across_engines(self, tmp_path, sto3g_basis):
        """A fresh engine attaching to the same directory reads the
        identical bytes back (simulates a new process/session)."""
        rng = np.random.default_rng(7)
        d = rand_density(rng, sto3g_basis.nbf)
        writer = MDEngine(sto3g_basis, store=tmp_path / "store")
        j1, k1 = build_jk(writer, d)

        reader = MDEngine(sto3g_basis, store=tmp_path / "store")
        assert reader.integral_store.ready
        j2, k2 = build_jk(reader, d)
        assert reader.quartets_computed == 0
        assert reader.quartets_served_from_store == writer.quartets_computed
        assert_store_holds_kernel_bits(reader)
        assert_jk_close((j2, k2), (j1, k1))
        # the writer's own served build assembled from the same bytes
        j3, k3 = build_jk(writer, d)
        assert np.array_equal(j2, j3)
        assert np.array_equal(k2, k3)

    @given(st.floats(-13.0, -6.0))
    @settings(max_examples=6, deadline=None)
    def test_round_trip_at_random_tau(self, log_tau):
        """At any threshold the warm build reads bitwise the blocks of the
        build that filled the store, with zero recompute."""
        tau = 10.0 ** log_tau
        basis = BasisSet.build(water(), "6-31g")
        d = rand_density(np.random.default_rng(5), basis.nbf)
        with tempfile.TemporaryDirectory() as tmp:
            filler = MDEngine(basis, store=tmp)
            j1, k1 = build_jk(filler, d, tau)
            assert filler.integral_store.manifest["tau"] == tau
            warm = MDEngine(basis, store=tmp)
            j2, k2 = build_jk(warm, d, tau)
            assert_store_holds_kernel_bits(warm, tau)
        assert warm.quartets_computed == 0
        assert warm.quartets_served_from_store == filler.quartets_computed > 0
        assert_jk_close((j2, k2), (j1, k1))

    def test_two_fills_write_the_same_file(self, tmp_path):
        """Two fills in fresh engines -- of different densities: a fill
        computes every row -- write ``supermatrix.bin`` and manifests (but
        their ``created`` stamps) that are sha256-equal."""
        basis = BasisSet.build(water(), "6-31g")
        rng = np.random.default_rng(29)
        files = []
        for name in ("first", "second"):
            build_jk(MDEngine(basis, store=tmp_path / name), rand_density(rng, basis.nbf))
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            del manifest["created"]
            files.append((
                hashlib.sha256((tmp_path / name / "supermatrix.bin").read_bytes())
                .hexdigest(), manifest,
            ))
        assert files[0] == files[1]

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_the_file_is_the_same_at_any_thread_count(self, tmp_path, threads):
        """``threads`` fills run at once, one per caller thread, each in its
        own engine and directory, write ``supermatrix.bin`` and manifests
        (but their ``created`` stamps) sha256-equal to a lone fill's: the
        shared module caches hold no per-fill state (the switch interval
        is shortened to interleave the callers)."""
        basis = BasisSet.build(water(), "6-31g")
        d = rand_density(np.random.default_rng(29), basis.nbf)

        def file_of(name):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            del manifest["created"]
            return (hashlib.sha256((tmp_path / name / "supermatrix.bin")
                                   .read_bytes()).hexdigest(), manifest)

        build_jk(MDEngine(basis, store=tmp_path / "lone"), d)
        errors = []

        def fill(name):
            try:
                build_jk(MDEngine(basis, store=tmp_path / name), d)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        callers = [threading.Thread(target=fill, args=(f"caller{i}",))
                   for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        lone = file_of("lone")
        assert [file_of(f"caller{i}") for i in range(threads)] == [lone] * threads


class TestInvalidation:
    def test_another_tau_refills_the_store(self, tmp_path, sto3g_basis):
        """tau is part of a store's identity: a build at another tau
        invalidates the store, naming both values, fills it at its own and
        is served from it; a fresh engine at that tau then computes
        nothing and builds the same J/K, bit for bit."""
        d = rand_density(np.random.default_rng(31), sto3g_basis.nbf)
        build_jk(MDEngine(sto3g_basis, store=tmp_path), d, 1e-11)
        engine = MDEngine(sto3g_basis, store=tmp_path)
        with pytest.warns(StoreInvalidatedWarning, match=r"1e-11.*1e-05"):
            j, k = build_jk(engine, d, 1e-5)
        plan = engine.class_plan(1e-5)
        assert engine.quartets_computed == plan.nquartets
        assert engine.quartets_served_from_store == plan.nquartets
        assert engine.integral_store.manifest["tau"] == 1e-5
        assert engine.integral_store.nblocks == plan.nquartets
        fresh = MDEngine(sto3g_basis, store=tmp_path)
        j_warm, k_warm = build_jk(fresh, d, 1e-5)
        assert np.array_equal(j, j_warm)
        assert np.array_equal(k, k_warm)
        assert_jk_close((j, k), build_jk(MDEngine(sto3g_basis), d, 1e-5))
        assert fresh.quartets_computed == 0
        assert fresh.quartets_served_from_store == plan.nquartets

    def test_basis_change_invalidates_and_refills(self, tmp_path):
        rng = np.random.default_rng(11)
        small = BasisSet.build(water(), "sto-3g")
        d = rand_density(rng, small.nbf)
        build_jk(MDEngine(small, store=tmp_path / "store"), d)

        big = BasisSet.build(water(), "6-31g")
        with pytest.warns(StoreInvalidatedWarning):
            engine = MDEngine(big, store=tmp_path / "store")
        assert engine.integral_store.filling
        d2 = rand_density(rng, big.nbf)
        j_stored, k_stored = build_jk(engine, d2)
        assert engine.quartets_computed > 0
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["basis_sha256"] == basis_fingerprint(big)
        j_warm, k_warm = build_jk(MDEngine(big, store=tmp_path / "store"), d2)
        assert np.array_equal(j_stored, j_warm)
        assert np.array_equal(k_stored, k_warm)
        assert_jk_close((j_stored, k_stored), build_jk(MDEngine(big), d2))

    def test_a_v3_store_is_refilled_never_misread(self, tmp_path, sto3g_basis):
        """A store in the parent format (v3: the unfolded M_J and M_K, as
        ``tests/reference_fold.write_v3_store`` writes it) is flagged by
        the audit and invalidated on attach, with a warning naming its
        version; the next build computes every plan row, its J/K are the
        direct build's, and the directory then holds a v4 store."""
        engine = MDEngine(sto3g_basis)
        plan = engine.class_plan(1e-11)
        mj, mk, _ = assemble_supermatrix(engine, plan)
        write_v3_store(tmp_path / "store", sto3g_basis, 1e-11, mj, mk, plan.nquartets)
        assert audit_store_dir(tmp_path / "store") == (["format version 3 predates v4; refill"], 0)
        d = rand_density(np.random.default_rng(41), sto3g_basis.nbf)
        with pytest.warns(StoreInvalidatedWarning, match="format version 3"):
            stored = MDEngine(sto3g_basis, store=tmp_path / "store")
        j, k = build_jk(stored, d)
        assert stored.quartets_computed == plan.nquartets
        assert_jk_close((j, k), build_jk(MDEngine(sto3g_basis), d))
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["version"] == STORE_VERSION == 4
        assert audit_store_dir(tmp_path / "store") == ([], sto3g_basis.nshells)

    def test_unreadable_manifest_invalidates(self, tmp_path, sto3g_basis):
        rng = np.random.default_rng(13)
        d = rand_density(rng, sto3g_basis.nbf)
        build_jk(MDEngine(sto3g_basis, store=tmp_path / "store"), d)
        (tmp_path / "store" / "manifest.json").write_text("{not json")
        with pytest.warns(StoreInvalidatedWarning):
            store = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert store.filling and not store.ready


class TestManifestProvenance:
    def test_manifest_fields(self, tmp_path, sto3g_basis):
        rng = np.random.default_rng(17)
        d = rand_density(rng, sto3g_basis.nbf)
        engine = MDEngine(sto3g_basis, store=tmp_path / "store")
        build_jk(engine, d, tau=1e-11)
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["version"] == STORE_VERSION
        assert manifest["basis_sha256"] == basis_fingerprint(sto3g_basis)
        assert manifest["basis_name"] == "sto-3g"
        assert manifest["tau"] == 1e-11
        assert manifest["nbf"] == sto3g_basis.nbf
        assert manifest["nshells"] == sto3g_basis.nshells
        assert manifest["nblocks"] == engine.quartets_computed
        created = datetime.fromisoformat(manifest["created"])
        assert created.tzinfo is not None  # tz-aware UTC, never naive

    def test_stats_snapshot(self, tmp_path, sto3g_basis):
        rng = np.random.default_rng(19)
        d = rand_density(rng, sto3g_basis.nbf)
        engine = MDEngine(sto3g_basis, store=tmp_path / "store")
        build_jk(engine, d)
        stats = engine.integral_store.stats()
        assert stats["ready"] and not stats["filling"]
        assert stats["nblocks"] == engine.quartets_computed
        assert stats["nbytes"] > 0
        assert stats["tau"] == 1e-11


class TestStoredSCF:
    def test_rhf_iterations_after_first_recompute_nothing(self, tmp_path):
        """The acceptance criterion: conventional SCF through
        ``RHF(integral_store=...)`` computes each screened quartet exactly
        once -- every Fock build is served entirely from the store, the
        first from the file it has just written."""
        scf = RHF(water(), integral_store=str(tmp_path / "store"))
        result = scf.run()
        assert result.converged
        assert result.iterations >= 2
        engine = scf.engine
        # each unique screened quartet computed exactly once, ever
        assert engine.quartets_computed == engine.integral_store.nblocks
        # every Fock build (iterations 1..N plus the final
        # post-convergence build) is a full sweep served from disk
        assert engine.quartets_served_from_store == (
            (result.iterations + 1) * engine.quartets_computed
        )

    @pytest.mark.parametrize("driver, mol, basis", [
        (RHF, water(), "6-31g"),
        (UHF, Molecule(atoms=water().atoms, charge=1, name="H2O+"), "sto-3g"),
    ], ids=["rhf-water-631g", "uhf-water-cation"])
    def test_cold_run_is_its_warm_rerun(self, tmp_path, driver, mol, basis):
        """A cold run on a user store is served from the store its first
        build fills: its F and D are sha256-equal to its warm rerun's and
        to the default run's (a private store), at the same energy and
        iteration count."""
        store, drivers, results = str(tmp_path / "store"), [], []
        for kw in ({"integral_store": store}, {"integral_store": store}, {}):
            drivers.append(driver(mol, basis, **kw))  # attaches the store as it is
            results.append(drivers[-1].run())
        cold, warm, default = drivers
        assert cold.engine.quartets_computed == cold.engine.integral_store.nblocks > 0
        assert warm.engine.quartets_computed == 0
        assert default.eri_store["private"]
        arrays = ["fock", "density"] if driver is RHF else [
            "fock_alpha", "fock_beta", "density_alpha", "density_beta"]
        digests = [[sha256(getattr(res, a)) for a in arrays] for res in results]
        assert digests[0] == digests[1] == digests[2]
        assert len({(res.energy, res.iterations) for res in results}) == 1
        assert results[0].converged

    def test_stored_scf_energy_matches_direct(self, tmp_path):
        direct = RHF(water()).run()
        stored = RHF(water(), integral_store=str(tmp_path / "store")).run()
        assert stored.energy == pytest.approx(direct.energy, abs=1e-10)

    def test_store_reused_across_scf_runs(self, tmp_path):
        first = RHF(water(), integral_store=str(tmp_path / "store"))
        first.run()
        second = RHF(water(), integral_store=str(tmp_path / "store"))
        result = second.run()
        assert result.converged
        assert second.engine.quartets_computed == 0
        assert second.engine.quartets_served_from_store > 0


#: the one (ss|ss) quartet the process-safety tests stage, as a plan row
_KEY = np.zeros((1, 4), dtype=np.int64)


def _stage(store, value: float) -> None:
    """Stage the arrays of a store holding only ``_KEY``, whose block is
    ``value``: with ``g = w (00|00)``, ``w = 1/8`` for a quartet of one
    shell, M_J's one term is ``g`` and M_K's ``2 g``, so P's one entry is
    ``4 g - 2 g = value / 4``."""
    plan = build_class_plan(store.basis, None, _KEY)
    fill = SlotFill(store.basis, plan, None)
    fill.write([(plan.batches[0], np.arange(1))], [np.full((1, 1, 1, 1, 1), value / 8.0)])
    store.record_batch(fill.folded(), 1)


def _stored_value(store):
    """The single element of the ``_KEY`` block, read back from disk."""
    return 4.0 * store.read_stacked().p.item()


class TestProcessSafety:
    """Cross-process hardening: atomic finalize, crash recovery, flock."""

    def _filled_store(self, tmp_path, basis, name="store"):
        store = ERIStore(tmp_path / name, basis).open_or_fill()
        _stage(store, 0.25)
        return store

    def test_crash_before_manifest_write_recovers(
        self, tmp_path, sto3g_basis, monkeypatch
    ):
        """A finalize killed after the data files but before the
        manifest leaves a store that a fresh open refills from scratch
        -- the manifest-last ordering makes the crash detectable."""
        import repro.integrals.store as store_mod

        store = self._filled_store(tmp_path, sto3g_basis)
        real_replace = store_mod.os.replace

        def crashing_replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("simulated crash mid-finalize")
            return real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", crashing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            store.finalize(tau=1e-10)
        monkeypatch.undo()
        # the data file landed but no manifest: the store must NOT attach
        assert (tmp_path / "store" / "supermatrix.bin").exists()
        assert not (tmp_path / "store" / "manifest.json").exists()
        fresh = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert fresh.filling and not fresh.ready
        _stage(fresh, 0.25)
        fresh.finalize(tau=1e-10)
        assert fresh.ready
        assert _stored_value(fresh) == 0.25

    def test_crash_before_data_write_recovers(
        self, tmp_path, sto3g_basis, monkeypatch
    ):
        import repro.integrals.store as store_mod

        store = self._filled_store(tmp_path, sto3g_basis)
        real_replace = store_mod.os.replace

        def crashing_replace(src, dst):
            if str(dst).endswith("supermatrix.bin"):
                raise OSError("simulated crash mid-finalize")
            return real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", crashing_replace)
        with pytest.raises(OSError):
            store.finalize(tau=1e-10)
        monkeypatch.undo()
        fresh = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert fresh.filling and not fresh.ready

    def test_concurrent_finalize_attaches_not_clobbers(
        self, tmp_path, sto3g_basis
    ):
        """Two writers race to finalize the same directory: the loser
        attaches to the winner's store instead of overwriting it."""
        winner = self._filled_store(tmp_path, sto3g_basis)
        winner.finalize(tau=1e-10)
        created = winner.manifest["created"]

        loser = ERIStore(tmp_path / "store", sto3g_basis)
        # simulate "was already filling when the winner finalized"
        loser.filling = True
        _stage(loser, 99.0)
        loser.finalize(tau=1e-10)
        assert loser.ready
        # the winner's bytes survived; the loser's 99.0 was discarded
        assert loser.manifest["created"] == created
        assert _stored_value(loser) == 0.25

    def test_lock_file_created_and_reentrant(self, tmp_path, sto3g_basis):
        store = self._filled_store(tmp_path, sto3g_basis)
        assert (tmp_path / "store" / ".lock").exists()
        with store._disk_lock():
            with store._disk_lock():  # reentrant: must not deadlock
                store.finalize(tau=1e-10)
        assert store.ready

    def test_two_processes_fill_same_store(self, tmp_path, sto3g_basis):
        """Real subprocesses racing open_or_fill/finalize on one
        directory both end up attached to a single consistent store."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.chem.builders import water\n"
            "from repro.scf.hf import RHF\n"
            "r = RHF(water(), integral_store=sys.argv[1]).run()\n"
            "print(repr(r.energy))\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path / "store")],
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        energies = []
        for p in procs:
            out, _ = p.communicate(timeout=120)
            assert p.returncode == 0
            energies.append(float(out.strip()))
        # whichever process loses the race may attach to the winner's
        # finalized store and take iteration 1 through the supermatrix:
        # same integrals, another summation order
        assert abs(energies[0] - energies[1]) <= 1e-10
        # the surviving store is valid for a third reader
        reader = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert reader.ready and reader.nblocks > 0
