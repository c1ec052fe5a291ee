"""Silent-data-corruption family: injection, detection, and recovery.

Every test follows the same shape as the other fault families
(``test_faults.py``, ``test_guard.py``, ``test_service.py``): plant a
seeded corruption, then prove the integrity layer *detects* it, the
recovery path *repairs* it bitwise, and a clean run raises *zero*
false alarms.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    assert_jk_close,
    assert_store_holds_kernel_bits,
    supermatrix_arrays,
)
from reference_supermatrix import kernel_blocks, write_v2_store

from repro.chem.builders import water
from repro.integrals.engine import MDEngine
from repro.integrals.store import (
    STORE_VERSION,
    ERIStore,
    StoreInvalidatedWarning,
    audit_store_dir,
    segment_extents,
)
from repro.obs.metrics import MetricsRegistry, export_integrity
from repro.obs.verify import verify_tree
from repro.runtime.sdc import (
    SYM_TOL,
    IntegrityError,
    IntegrityMonitor,
    SDCFaultPlan,
    flip_bit_in_file,
    random_sdc_plan,
    zip_member_spans,
)
from repro.scf.checkpoint import (
    CheckpointCorruptionWarning,
    CheckpointIntegrityError,
    load_checkpoint,
    load_latest_intact,
    save_checkpoint,
)
from repro.scf.fock import build_jk
from repro.scf.guard import GuardConfig, GuardError
from repro.scf import hf
from repro.scf.hf import RHF
from repro.scf.uhf import UHF

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import h2
from repro.chem.molecule import Molecule
from repro.runtime.faults import SCFFaultPlan


@pytest.fixture()
def sto3g_basis():
    return BasisSet.build(water(), "sto-3g")


def rand_density(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


# -- fault plan mechanics ----------------------------------------------------


class TestSDCFaultPlan:
    def test_empty_plan_has_no_faults(self):
        assert not SDCFaultPlan(seed=0).has_faults
        assert SDCFaultPlan(seed=0, store_flips=1).has_faults

    def test_validation(self):
        with pytest.raises(ValueError):
            SDCFaultPlan(seed=0, checkpoint_flip_rate=1.5)
        with pytest.raises(ValueError):
            SDCFaultPlan(seed=0, store_flips=-1)
        with pytest.raises(ValueError):
            SDCFaultPlan(seed=0, fock_flip_iterations=(0,))

    def test_same_seed_same_plan(self):
        assert random_sdc_plan(7) == random_sdc_plan(7)
        assert random_sdc_plan(7) != random_sdc_plan(8)

    def test_matrix_flip_fires_once_per_iteration(self):
        state = SDCFaultPlan(seed=0, fock_flip_iterations=(2,)).activate()
        a = np.eye(4) + 0.1
        first = state.corrupt_matrix(a, 2, "fock")
        assert np.max(np.abs(first - a)) > 0
        assert state.matrices_corrupted == 1
        again = state.corrupt_matrix(a, 2, "fock")
        assert np.array_equal(again, a)  # same (iteration, target): no re-fire
        assert state.matrices_corrupted == 1

    def test_corruption_budget_caps_injections(self):
        plan = SDCFaultPlan(seed=0, payload_flip_rate=1.0, max_corruptions=3)
        state = plan.activate()
        for _ in range(10):
            state.corrupt_payload(np.ones(4))
        assert state.payloads_corrupted == 3


# -- checkpoint integrity ----------------------------------------------------


class TestCheckpointIntegrity:
    def _save(self, tmp_path, iteration, n=4, density=None):
        rng = np.random.default_rng(iteration)
        d = rand_density(rng, n) if density is None else density
        return save_checkpoint(
            tmp_path, iteration, d, -1.0 - iteration, [-1.0, -1.0 - iteration],
            base=None,
        )

    def test_round_trip_verifies(self, tmp_path):
        path = self._save(tmp_path, 3)
        ck = load_checkpoint(path, verify=True)
        assert ck.iteration == 3

    def test_bit_flip_is_detected(self, tmp_path):
        path = self._save(tmp_path, 3)
        rng = np.random.default_rng(0)
        flip_bit_in_file(path, rng)
        with pytest.raises(Exception):  # zipfile CRC or payload digest
            load_checkpoint(path, verify=True)

    def test_load_latest_intact_falls_back(self, tmp_path):
        self._save(tmp_path, 1)
        flipped = self._save(tmp_path, 2)
        flip_bit_in_file(flipped, np.random.default_rng(0))
        with pytest.warns(CheckpointCorruptionWarning):
            ck = load_latest_intact(tmp_path)
        assert ck is not None and ck.iteration == 1

    def test_nan_density_rejected(self, tmp_path):
        d = np.full((4, 4), np.nan)
        path = self._save(tmp_path, 5, density=d)
        # the digest is valid (it covers the NaNs), so this is the
        # semantic-validation layer firing, not the checksum layer
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path, verify=True)
        with pytest.warns(CheckpointCorruptionWarning):
            assert load_latest_intact(tmp_path) is None

    @staticmethod
    def _hand_built(tmp_path, digest: bool, n_diis: int = 4):
        from repro.scf.checkpoint import payload_digest

        payload = {
            "iteration": np.int64(1),
            "density": np.eye(4),
            "energy": np.float64(-1.0),
            "energy_history": np.array([-1.0]),
            "diis_focks": np.zeros((2, n_diis, n_diis)),
            "diis_errors": np.zeros((2, n_diis, n_diis)),
        }
        if digest:
            payload["payload_sha256"] = np.str_(payload_digest(payload))
        path = tmp_path / "scf_ckpt_0001.npz"
        np.savez(path, **payload)
        return path

    def test_mismatched_diis_shape_rejected(self, tmp_path):
        # hand-built snapshot with a valid digest over wrong shapes: only
        # the shape check can reject it
        path = self._hand_built(tmp_path, digest=True, n_diis=3)  # not (k, 4, 4)
        with pytest.raises(CheckpointIntegrityError, match="inconsistent"):
            load_checkpoint(path, verify=True)

    def test_snapshot_without_digest_rejected(self, tmp_path):
        # sound arrays, but nothing vouches for their bytes: fail closed
        path = self._hand_built(tmp_path, digest=False)
        with pytest.raises(CheckpointIntegrityError, match="no payload digest"):
            load_checkpoint(path, verify=True)
        with pytest.warns(CheckpointCorruptionWarning, match="no payload digest"):
            assert load_latest_intact(tmp_path) is None
        assert load_checkpoint(
            self._hand_built(tmp_path, digest=True), verify=True
        ).iteration == 1

    def test_tampered_array_fails_digest(self, tmp_path):
        from repro.scf.checkpoint import payload_digest

        payload = {
            "iteration": np.int64(1),
            "density": np.eye(4),
            "energy": np.float64(-1.0),
        }
        digest = payload_digest(payload)
        payload["density"] = np.eye(4) * 2
        assert payload_digest(payload) != digest


# -- store integrity ---------------------------------------------------------


def sha256_hex(blocks: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(blocks).tobytes()).hexdigest()


@pytest.fixture()
def filled_store(tmp_path, sto3g_basis):
    rng = np.random.default_rng(23)
    d = rand_density(rng, sto3g_basis.nbf)
    engine = MDEngine(sto3g_basis, store=tmp_path / "store")
    j, k = build_jk(engine, d, tau=1e-11)
    return tmp_path / "store", d, j, k


def flip_in_segment(store_dir, segment: int, array: int, seed: int) -> None:
    """Flip one seeded bit of one byte of ``array`` (0 P, 1 K', 2 indices,
    3 indptr) of ``segment`` in a store's data file."""
    data_file, segments = segment_extents(store_dir)
    rng = np.random.default_rng(seed)
    lo, hi = segments[segment][array]
    byte = int(rng.integers(lo, hi))
    raw = bytearray(data_file.read_bytes())
    raw[byte] ^= 1 << int(rng.integers(8))
    data_file.write_bytes(bytes(raw))


def shell_rows(plan, shell: int) -> int:
    """Plan rows whose first shell is ``shell``: a segment's quartets."""
    return sum(int((b.quartets[:, 0] == shell).sum()) for b in plan.batches)


class TestStoreIntegrity:
    def test_finalize_records_crcs_and_digest(self, filled_store, sto3g_basis):
        store_dir, *_ = filled_store
        manifest = json.loads((store_dir / "manifest.json").read_text())
        assert manifest["version"] == STORE_VERSION
        # one CRC per segment: a segment per shell, over P, K', indices, indptr
        assert len(manifest["crcs"]) == sto3g_basis.nshells
        assert all(0 <= crc < 2**32 for crc in manifest["crcs"])
        assert len(manifest["data_sha256"]) == 64
        assert (store_dir / "supermatrix.bin").stat().st_size == manifest["nbytes"]

    def test_verified_read_rescues_corrupt_blocks(
        self, filled_store, sto3g_basis
    ):
        store_dir, d, j_ref, k_ref = filled_store
        clean_dir = shutil.copytree(store_dir, store_dir.parent / "clean")
        plan = SDCFaultPlan(seed=5, store_flips=3)
        state = plan.activate()
        assert state.corrupt_store_dir(store_dir) == 3
        engine = MDEngine(sto3g_basis, store=store_dir)
        engine.integral_store.open_or_fill()
        engine.integral_store.verify_reads = True
        j, k = build_jk(engine, d, tau=1e-11)
        store = engine.integral_store
        # three distinct segments flipped, three detected
        assert store.crc_mismatches == 3
        assert engine.crc_rescues > 0 and engine.quartets_computed == 0
        # rebuilt segments are bitwise what the clean store holds: the
        # matrices mapped over the corrupted store are the ones mapped
        # over a clean copy, bit for bit
        assert_jk_close((j, k), (j_ref, k_ref))
        clean = MDEngine(sto3g_basis, store=clean_dir)
        assert_jk_close(build_jk(clean, d, tau=1e-11), (j_ref, k_ref))
        for got, want in zip(supermatrix_arrays(engine),
                             supermatrix_arrays(clean)):
            assert np.array_equal(got, want)

    def test_crc_rescued_rows_are_bitwise_the_filled_ones(
        self, filled_store, sto3g_basis
    ):
        """A failed segment is rebuilt from its shell's rows alone (a
        family sweep over their family quartets): its bytes are the bytes
        the whole-plan sweep filled the store with (sha256 per array),
        and only its rows are recomputed."""
        store_dir, *_ = filled_store
        clean = ERIStore(shutil.copytree(store_dir, store_dir.parent / "clean"),
                         sto3g_basis).open_or_fill()
        flip_in_segment(store_dir, 2, 0, seed=1)  # P, shell 2
        flip_in_segment(store_dir, 4, 2, seed=2)  # indices, shell 4
        engine = MDEngine(sto3g_basis, store=store_dir)
        store = engine.integral_store
        store.verify_reads = True
        build_jk(engine, np.eye(sto3g_basis.nbf))
        plan = engine.class_plan(1e-11)
        assert store.crc_mismatches == 2
        assert engine.crc_rescues == shell_rows(plan, 2) + shell_rows(plan, 4)
        assert engine.quartets_computed == 0
        want = list(clean.read_stacked())
        assert [sha256_hex(a) for a in supermatrix_arrays(engine)] == [
            sha256_hex(a) for a in want]

    @pytest.mark.parametrize("array", [0, 1, 2, 3], ids=["data", "exchange", "indices", "indptr"])
    def test_one_flip_rebuilds_only_its_segment(self, tmp_path, array):
        """A flip in a segment's P values (``data``), K' values
        (``exchange``), column indices or row pointers is
        detected, only that segment is rebuilt, and the warm run's F is
        sha256-equal to the clean warm run's."""
        clean_dir, bad_dir = tmp_path / "clean", tmp_path / "bad"
        RHF(water(), integral_store=str(clean_dir)).run()
        shutil.copytree(clean_dir, bad_dir)
        basis = BasisSet.build(water(), "sto-3g")
        shell = basis.nshells - 1  # the last shell: the most rows
        flip_in_segment(bad_dir, shell, array, seed=array)
        clean = RHF(water(), integral_store=str(clean_dir), integrity=True).run()
        rhf = RHF(water(), integral_store=str(bad_dir), integrity=True)
        res = rhf.run()
        store = rhf.engine.integral_store
        assert store.crc_mismatches == 1
        assert rhf.engine.crc_rescues == shell_rows(rhf.engine.class_plan(rhf.tau), shell)
        assert rhf.engine.quartets_computed == 0
        assert res.integrity_summary["detections"] == {"store_block": 1}
        assert sha256_hex(res.fock) == sha256_hex(clean.fock)
        assert res.energy == clean.energy

    def test_unpatchable_segment_is_refilled_in_the_same_build(
        self, filled_store, sto3g_basis
    ):
        """A rebuilt segment whose non-zeros are not the slot's (a rescue
        kernel with other exact zeros than the filling one) cannot be
        patched in: the store is invalidated and the same build refills
        it, computing every plan row once, and is served from the refill,
        so a fresh engine computes nothing, its CRC checks pass and it
        builds the same J/K, bit for bit."""
        store_dir, d, j_ref, k_ref = filled_store
        flip_in_segment(store_dir, 3, 0, seed=3)
        engine = MDEngine(sto3g_basis, store=store_dir)
        engine.integral_store.verify_reads = True
        real, calls = engine.compute_rows, []

        def zero_rescue(chunk):  # the rescue is the first kernel call
            calls.append(chunk)
            parts = real(chunk)
            return [0.0 * p for p in parts] if len(calls) == 1 else parts

        engine.compute_rows = zero_rescue
        with pytest.warns(StoreInvalidatedWarning, match="does not fit"):
            j, k = build_jk(engine, d, tau=1e-11)
        plan = engine.class_plan(1e-11)
        assert engine.crc_rescues == shell_rows(plan, 3)
        assert engine.quartets_computed == plan.nquartets
        assert engine.quartets_served_from_store == plan.nquartets
        store = engine.integral_store
        assert store.ready and store.supermatrix is not None
        # the refill's CRCs pass: the one mismatch is the flipped segment
        assert store.crc_mismatches == 1
        # served from the refill: the build that filled the store first, bit for bit
        assert np.array_equal(j, j_ref) and np.array_equal(k, k_ref)
        assert audit_store_dir(store_dir) == ([], sto3g_basis.nshells)
        fresh = MDEngine(sto3g_basis, store=store_dir)
        fresh.integral_store.verify_reads = True
        j_fresh, k_fresh = build_jk(fresh, d, tau=1e-11)
        assert np.array_equal(j_fresh, j_ref) and np.array_equal(k_fresh, k_ref)
        assert fresh.quartets_computed == fresh.crc_rescues == 0
        assert fresh.integral_store.crc_checks == sto3g_basis.nshells
        assert fresh.integral_store.crc_mismatches == 0

    def test_a_fill_whose_file_cannot_be_mapped_is_refilled(
        self, filled_store, sto3g_basis, tmp_path, monkeypatch
    ):
        """A fill is served from the file it wrote.  Another process
        changing that file between ``finalize`` and the mapping (a flipped
        bit, rebuilt with other exact zeros) cannot hand ``None`` up: the
        store is invalidated and the same build fills it again and is
        served from the refill."""
        _, d, j_ref, k_ref = filled_store
        store_dir = tmp_path / "refilled"
        engine = MDEngine(sto3g_basis, store=store_dir)
        engine.integral_store.verify_reads = True
        real_finalize, real_rows = ERIStore.finalize, engine.compute_rows
        finalized, calls = [], []

        def finalize(self, tau):
            real_finalize(self, tau)
            if not finalized:
                flip_in_segment(store_dir, 3, 0, seed=3)
            finalized.append(tau)

        def compute_rows(chunk):  # the rescue, the first call after a finalize: zeros
            calls.append(len(finalized))
            parts = real_rows(chunk)
            return [0.0 * p for p in parts] if calls.count(1) == 1 == calls[-1] else parts

        monkeypatch.setattr(ERIStore, "finalize", finalize)
        engine.compute_rows = compute_rows
        with pytest.warns(StoreInvalidatedWarning, match="does not fit"):
            j, k = build_jk(engine, d, tau=1e-11)
        plan = engine.class_plan(1e-11)
        assert finalized == [1e-11, 1e-11]
        assert engine.crc_rescues == shell_rows(plan, 3)
        assert engine.quartets_computed == 2 * plan.nquartets
        assert engine.quartets_served_from_store == plan.nquartets
        assert engine.integral_store.crc_mismatches == 1
        assert np.array_equal(j, j_ref) and np.array_equal(k, k_ref)
        assert audit_store_dir(store_dir) == ([], sto3g_basis.nshells)

    def test_unverified_read_accepts_corruption_silently(
        self, filled_store, sto3g_basis
    ):
        # the hazard the CRC framing closes: without verify_reads a
        # flipped value flows straight into J/K
        store_dir, d, j_ref, k_ref = filled_store
        clean_dir = shutil.copytree(store_dir, store_dir.parent / "clean")
        data_file, segments = segment_extents(store_dir)
        lo, hi = segments[sto3g_basis.nshells - 1][0]  # the last segment's P
        raw = bytearray(data_file.read_bytes())
        raw[lo + 7] ^= 0x10  # an exponent bit of its first value
        data_file.write_bytes(bytes(raw))
        engine = MDEngine(sto3g_basis, store=store_dir)
        j, k = build_jk(engine, d, tau=1e-11)
        assert engine.integral_store.crc_mismatches == 0
        clean = MDEngine(sto3g_basis, store=clean_dir)
        build_jk(clean, d, tau=1e-11)
        assert not all(
            np.array_equal(got, want)
            for got, want in zip(supermatrix_arrays(engine),
                                 supermatrix_arrays(clean))
        )
        assert max(np.abs(j - j_ref).max(), np.abs(k - k_ref).max()) > 1e-12

    def test_unverified_read_never_maps_a_malformed_segment(
        self, filled_store, sto3g_basis
    ):
        """Unverified, a flipped column index or row pointer that would
        point outside its segment or the matrix is caught by the shape
        check and the segment rebuilt: a bad bit is a wrong value at
        worst, never an out-of-bounds read."""
        store_dir, d, j_ref, k_ref = filled_store
        data_file, segments = segment_extents(store_dir)
        raw = bytearray(data_file.read_bytes())
        raw[segments[3][2][1] - 1] ^= 0x80  # an index's sign bit (shell 3)
        raw[segments[-1][3][0] + 1] ^= 0x40  # a row pointer's high byte (the last shell)
        data_file.write_bytes(bytes(raw))
        engine = MDEngine(sto3g_basis, store=store_dir)
        j, k = build_jk(engine, d, tau=1e-11)
        assert engine.integral_store.crc_mismatches == 2
        assert engine.integral_store.crc_checks == 0
        assert_jk_close((j, k), (j_ref, k_ref))

    def test_verify_stacked_flags_exactly_the_bad_rows(
        self, filled_store, sto3g_basis
    ):
        """The check is per segment -- the rows of one shell -- and every
        call checks every segment it is handed."""
        store_dir, *_ = filled_store
        store = ERIStore(store_dir, sto3g_basis).open_or_fill()
        assert store.ready
        store.verify_reads = True
        nshells = sto3g_basis.nshells
        arrays = store.read_stacked()
        rows, nnz = store.offsets_for()
        arrays.k[nnz[2]] *= 1.0000001  # copy-on-write: the file is untouched
        good = store.verify_stacked(arrays)
        assert not good[2] and good.sum() == nshells - 1
        assert store.crc_checks == nshells
        assert not store.verify_stacked(arrays)[2]
        assert store.crc_checks == 2 * nshells
        assert store.verify_stacked(store.read_stacked()).all()
        assert store.crc_checks == 3 * nshells
        assert store.crc_mismatches == 2
        assert rows == (sto3g_basis.offsets * sto3g_basis.nbf).tolist()

    def test_version_mismatch_invalidates_with_reason(
        self, filled_store, sto3g_basis
    ):
        store_dir, *_ = filled_store
        manifest = json.loads((store_dir / "manifest.json").read_text())
        manifest["version"] = STORE_VERSION - 1
        (store_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.warns(StoreInvalidatedWarning, match="format version"):
            store = ERIStore(store_dir, sto3g_basis).open_or_fill()
        assert store.filling and not store.ready


class TestV2Store:
    """A store written in the parent format (v2: flat blocks, per-block
    index) is never misread: the audit names it, attaching refills it."""

    @pytest.fixture()
    def v2_dir(self, tmp_path, sto3g_basis):
        engine = MDEngine(sto3g_basis)
        plan = engine.class_plan(1e-11)
        return write_v2_store(
            tmp_path / "store", sto3g_basis, 1e-11, kernel_blocks(engine, plan)
        )

    def test_verify_says_it_predates_segments(self, v2_dir, capsys):
        from repro.cli import main

        report = verify_tree(v2_dir)
        assert [f.problem for f in report.findings] == [
            "format version 2 predates v4; refill"]
        assert main(["verify", str(v2_dir)]) == 1
        assert "predates v4; refill" in capsys.readouterr().out

    def test_attaching_invalidates_and_refills(self, v2_dir, sto3g_basis):
        d = rand_density(np.random.default_rng(3), sto3g_basis.nbf)
        with pytest.warns(StoreInvalidatedWarning, match="format version 2"):
            engine = MDEngine(sto3g_basis, store=v2_dir)
        assert engine.integral_store.filling
        assert not (v2_dir / "blocks.bin").exists()
        assert not (v2_dir / "index.npz").exists()
        j, k = build_jk(engine, d)
        assert engine.quartets_computed == engine.class_plan(1e-11).nquartets
        assert np.array_equal(j, build_jk(MDEngine(sto3g_basis, store=v2_dir), d)[0])
        assert_jk_close((j, k), build_jk(MDEngine(sto3g_basis), d))
        assert engine.integral_store.ready
        assert verify_tree(v2_dir).clean
        assert_store_holds_kernel_bits(engine)


# -- GA payload integrity ----------------------------------------------------


class TestGAPayloadIntegrity:
    def _ga(self, checksums, sdc=None):
        from repro.runtime.ga import GlobalArray, block_bounds
        from repro.runtime.machine import LONESTAR
        from repro.runtime.network import CommStats

        n = 8
        bounds = block_bounds(n, 2)
        stats = CommStats(4, LONESTAR)
        ga = GlobalArray(
            stats, n, n, bounds, bounds,
            checksums=checksums, sdc=sdc,
        )
        return ga, stats, n

    def _drive(self, ga, n, nops=24):
        rng = np.random.default_rng(11)
        expected = np.zeros((n, n))
        for k in range(nops):
            r0, c0 = int(rng.integers(n - 2)), int(rng.integers(n - 2))
            block = rng.standard_normal((2, 2))
            ga.acc(k % 4, r0, c0, block, tag=("t", k))
            expected[r0:r0 + 2, c0:c0 + 2] += block
        return expected

    def test_checksummed_acc_survives_payload_corruption(self):
        state = SDCFaultPlan(seed=1, payload_flip_rate=0.3).activate()
        ga, _stats, n = self._ga(True, sdc=state)
        expected = self._drive(ga, n)
        assert state.payloads_corrupted > 0
        assert ga.checksum_rejects == state.payloads_corrupted
        assert np.array_equal(ga.to_numpy(), expected)

    def test_unchecksummed_acc_is_silently_wrong(self):
        state = SDCFaultPlan(seed=1, payload_flip_rate=0.3).activate()
        ga, _stats, n = self._ga(False, sdc=state)
        expected = self._drive(ga, n)
        assert state.payloads_corrupted > 0
        assert ga.checksum_rejects == 0
        assert not np.array_equal(ga.to_numpy(), expected)

    def test_crc_trailer_is_charged_as_overhead(self):
        ga_off, stats_off, n = self._ga(False)
        self._drive(ga_off, n)
        ga_on, stats_on, _ = self._ga(True)
        self._drive(ga_on, n)
        assert stats_on.bytes.sum() > stats_off.bytes.sum()


# -- ABFT detectors ----------------------------------------------------------


class TestIntegrityMonitor:
    def _sd(self, n=5, nocc=2):
        rng = np.random.default_rng(3)
        s = np.eye(n)
        c = rng.standard_normal((n, nocc))
        c, _ = np.linalg.qr(c)
        d = c @ c.T  # idempotent, Tr(D S) = nocc
        return s, d

    def test_clean_matrices_pass(self):
        s, d = self._sd()
        mon = IntegrityMonitor(overlap=s)
        f = 0.5 * (d + d.T) - np.eye(5)
        assert mon.check_fock(f)
        assert mon.check_density(d, 2)
        assert mon.detections_total == 0
        assert mon.checks_total > 0

    def test_exponent_flip_breaks_symmetry_detector(self):
        s, d = self._sd()
        mon = IntegrityMonitor(overlap=s)
        state = SDCFaultPlan(seed=2, fock_flip_iterations=(1,)).activate()
        bad = state.corrupt_matrix(d.copy(), 1, "fock")
        assert not mon.check_fock(bad)
        assert mon.detections.get("fock_matrix") == 1

    def test_trace_detector_catches_scaled_density(self):
        s, d = self._sd()
        mon = IntegrityMonitor(overlap=s)
        assert not mon.check_density(1.5 * d, 2)  # symmetric, wrong trace
        assert mon.detections.get("density_matrix") == 1

    def test_nonfinite_always_detected(self):
        s, d = self._sd()
        mon = IntegrityMonitor(overlap=s)
        bad = d.copy()
        bad[0, 1] = np.inf
        assert not mon.check_density(bad, 2)

    @given(st.integers(0, 2**16), st.integers(2, 13),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_detectors_on_random_symmetric_matrices(self, seed, n, bad, diagonal):
        """A finite symmetric matrix passes F's and D's detectors (D's
        without an overlap: symmetry alone); one planted NaN or +-Inf, on
        the diagonal or off it, fails both without a ``RuntimeWarning``;
        an asymmetry passes at half of ``SYM_TOL * max(1, max|A|)`` and
        fails at four times it."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        a = a + a.T
        mon = IntegrityMonitor()
        assert mon.check_fock(a) and mon.check_density(a, 1)
        i, j = rng.choice(n, size=2, replace=False)
        planted = a.copy()
        planted[(i, i) if diagonal else (i, j)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not mon.check_fock(planted)
            assert not mon.check_density(planted, 1)
        bound = SYM_TOL * max(1.0, np.abs(a).max())
        for times, ok in ((0.5, True), (4.0, False)):
            tilted = a.copy()
            tilted[i, j] += times * bound
            assert mon.check_fock(tilted) == mon.check_density(tilted, 1) == ok
        assert mon.detections == {"fock_matrix": 2, "density_matrix": 2}

    def test_metrics_export(self):
        s, d = self._sd()
        mon = IntegrityMonitor(overlap=s)
        mon.check_density(d, 2)
        mon.check_density(1.5 * d, 2)
        mon.record_recovery("recompute")
        reg = MetricsRegistry()
        export_integrity(mon.summary(), registry=reg)
        text = reg.to_prometheus()
        assert "repro_integrity_checks_total" in text
        assert "repro_integrity_corruptions_detected_total" in text
        assert "repro_integrity_recoveries_total" in text


# -- SCF recovery ladder -----------------------------------------------------


def full_build_at(driver_type, iterations):
    """``driver_type`` with a full Fock build at ``iterations``.  A
    repaired F is rebuilt from scratch where a clean direct run
    increments, so the clean run with that schedule is the trajectory a
    repaired run must reproduce."""

    class FullBuildAt(driver_type):
        def _checked_focks(self, run, it):
            if it in iterations:
                run.base = None
            return super()._checked_focks(run, it)

    return FullBuildAt


class TestSCFRecovery:
    def test_matrix_flips_recovered_bitwise(self, tmp_path):
        mol = water()
        clean = full_build_at(RHF, (2,))(mol, basis_name="sto-3g").run()
        plan = SDCFaultPlan(
            seed=4, fock_flip_iterations=(2,), density_flip_iterations=(3,)
        )
        rhf = RHF(
            mol, basis_name="sto-3g", integrity=True, sdc_faults=plan,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        res = rhf.run()
        assert res.converged
        s = res.integrity_summary
        assert s["detections"].get("fock_matrix", 0) >= 1
        assert s["detections"].get("density_matrix", 0) >= 1
        assert s["recoveries"].get("recompute", 0) >= 2
        # recompute is bitwise: the trajectory is the clean trajectory
        # with the rebuilt F's full build
        assert res.energy == clean.energy
        assert np.array_equal(res.fock, clean.fock)

    def test_clean_run_zero_false_positives(self):
        res = RHF(water(), basis_name="sto-3g", integrity=True).run()
        s = res.integrity_summary
        assert res.converged
        assert s["detections_total"] == 0
        assert s["recoveries_total"] == 0
        assert s["checks_total"] > 0

    def test_integrity_off_has_no_summary(self):
        res = RHF(water(), basis_name="sto-3g").run()
        assert res.integrity_summary is None


class TestUHFRecovery:
    """The integrity ladder on the two-channel spin stack (UHF shares
    RHF's loop, so detection and recompute map over both spins)."""

    #: (molecule, driver kwargs, Fock-flip iteration, density-flip
    #: iteration); the H atom converges in two iterations, and needs a
    #: second basis function for its Fock matrix to have an off-diagonal
    SYSTEMS = {
        "h-doublet": (
            lambda: Molecule.from_arrays(["H"], np.zeros((1, 3)), name="H"),
            {"basis_name": "6-31g"}, 1, 2,
        ),
        "h2-triplet": (
            lambda: h2(0.7414), {"basis_name": "6-31g", "multiplicity": 3},
            2, 4,
        ),
        "water-cation-doublet": (
            lambda: Molecule(atoms=water().atoms, charge=1, name="H2O+"),
            {}, 2, 4,
        ),
    }

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_matrix_flips_detected_and_recovered(self, name):
        make, kw, fock_it, density_it = self.SYSTEMS[name]
        clean = full_build_at(UHF, (fock_it,))(make(), integrity=True, **kw).run()
        assert clean.converged
        assert clean.integrity_summary["detections_total"] == 0
        assert clean.integrity_summary["checks_total"] > 0
        plan = SDCFaultPlan(
            seed=1, fock_flip_iterations=(fock_it,),
            density_flip_iterations=(density_it,),
        )
        res = UHF(make(), integrity=True, sdc_faults=plan, **kw).run()
        s = res.integrity_summary
        assert s["injections"]["matrices_corrupted"] == 2
        assert s["detections_total"] == 2
        assert s["detections"] == {"density_matrix": 1, "fock_matrix": 1}
        assert s["recoveries"] == {"recompute": 2}
        assert abs(res.energy - clean.energy) <= 1e-12
        assert res.iterations == clean.iterations


class TestRunScopedArming:
    """A run arms the engine (ERI sentinel, seeded quartet faults) and
    its store (CRC verification) for its own duration only."""

    @pytest.fixture()
    def engine(self, sto3g_basis, tmp_path):
        engine = MDEngine(sto3g_basis)
        engine.attach_store(tmp_path / "store")
        return engine

    def assert_disarmed(self, engine):
        assert engine.finite_check is False
        assert engine.scf_faults is None
        assert engine.integral_store.verify_reads is False

    def test_restored_after_a_run(self, engine):
        plan = SCFFaultPlan(seed=11, quartet_nan_rate=0.2)
        res = RHF(
            water(), engine=engine, guard=True, faults=plan, integrity=True
        ).run()
        assert res.converged and engine.eri_rescues > 0
        self.assert_disarmed(engine)
        # the next run on the shared engine pays for none of it
        rescues = engine.eri_rescues
        plain = RHF(water(), engine=engine).run()
        # (the store holds reference-kernel values for the rescued rows)
        assert abs(plain.energy - RHF(water()).run().energy) <= 1e-10
        assert engine.eri_rescues == rescues
        UHF(water(), engine=engine).run()
        self.assert_disarmed(engine)

    def test_restored_when_the_run_raises(self, engine):
        plan = SCFFaultPlan(seed=1, fock_nan_iterations=(1, 2, 3, 4, 5))
        with pytest.raises(GuardError):
            RHF(
                water(), engine=engine, guard=GuardConfig(max_nonfinite=2),
                faults=plan, integrity=True,
            ).run()
        self.assert_disarmed(engine)

    def test_caller_armed_engine_stays_armed(self, engine):
        engine.finite_check = True
        RHF(water(), engine=engine).run()
        assert engine.finite_check is True


class TestFaultsCompose:
    """The north star's composed fault: seeded quartet NaNs, a NaN'd
    Fock, flipped Fock / density elements and flipped checkpoint files in
    one stored-integral run that is also killed once."""

    def test_kill_bitflip_and_nan_in_one_rhf_run(self, tmp_path):
        # with snapshots 3-5 flipped the restart fell back to iteration 2,
        # so both matrix flips fired again and were caught
        self.check(
            RHF, water(), "6-31g", tmp_path, kill_at=5,
            detected={"density_matrix": 1, "fock_matrix": 1}, where="fock",
        )

    def test_kill_bitflip_and_nan_in_one_uhf_run(self, tmp_path, monkeypatch):
        # converged past the default tolerances, so the clean-energy check
        # compares two converged energies, not two stopping points; the
        # quartet NaNs are capped, or a reference_eri rung (it detaches the
        # store) would let them land on 5 % of every build to the end.
        # Snapshots 3 and 4 are flipped: the restart resumes after
        # iteration 2, so the Fock flip of iteration 3 and the density
        # flip of iteration 4 fire again (snapshot 3's flip once landed
        # in a zip64 extra field no reader checks, and it resumed there)
        monkeypatch.setattr(hf, "E_TOL", 1e-11)
        monkeypatch.setattr(hf, "D_TOL", 1e-8)
        self.check(
            UHF, Molecule(atoms=water().atoms, charge=1), "sto-3g", tmp_path,
            kill_at=4, detected={"density_matrix": 1, "fock_matrix": 1},
            where="fock_alpha", cap={"max_corruptions": 30},
        )

    def check(self, driver_type, mol, basis, tmp_path, kill_at, detected,
              where, cap=None):
        """Kill the faulted run at ``kill_at``, resume it, and demand the
        clean energy, one classified non-finite event ``where`` and the
        ``detected`` matrix flips, each repaired by one recompute.  The
        clean reference is the default run: its private store and the
        faulted run's user store both serve every build from the class
        kernel's matrices (bar the rows the sentinel rescued)."""
        cap = cap or {}
        clean = driver_type(mol, basis).run()

        class Killed(Exception):
            pass

        def kill(iteration, energy):
            if iteration == kill_at:
                raise Killed

        def driver(**kw):
            return driver_type(
                mol, basis, guard=True, integrity=True,
                faults=SCFFaultPlan(
                    seed=5, quartet_nan_rate=0.05, fock_nan_iterations=(2,),
                    **cap,
                ),
                sdc_faults=SDCFaultPlan(
                    seed=3, checkpoint_flip_rate=0.34,
                    fock_flip_iterations=(3,), density_flip_iterations=(4,),
                ),
                integral_store=str(tmp_path / "store"),
                checkpoint_dir=str(tmp_path / "ckpt"), **kw,
            )

        first = driver(on_iteration=kill)
        with pytest.raises(Killed):
            first.run()
        resumed = driver(restart=True)
        with pytest.warns(CheckpointCorruptionWarning):
            res = resumed.run()
        assert res.converged
        assert abs(res.energy - clean.energy) <= 1e-12
        # the quartet NaNs hit the store-filling first build
        assert first.engine.eri_rescues >= 1
        # the NaN'd Fock of iteration 2 reached the resumed run through
        # the persisted guard state ...
        assert res.guard_summary["nonfinite"] == 1
        assert [ev.detail.get("where") for ev in res.guard_events
                if ev.classification == "non_finite"
                and ev.action == "observe"] == [where]
        # ... and each matrix flip after the snapshot the restart fell
        # back to fired again and was caught
        s = res.integrity_summary
        assert s["injections"]["matrices_corrupted"] == len(detected)
        assert s["detections"] == detected
        assert s["recoveries"] == {"recompute": len(detected)}


class TestRHFSnapshotFormat:
    @pytest.mark.usefixtures("direct_scf")  # a direct run keeps its base F / D
    def test_keys_dtypes_and_shapes_are_pinned(self, tmp_path):
        """The one-channel layout documented in ``scf/checkpoint.py``: a
        service job checkpointed by an older commit must keep resuming,
        so the key set, dtypes and shapes may only change on purpose."""
        RHF(water(), "sto-3g", max_iter=3, guard=True,
            checkpoint_dir=str(tmp_path)).run()
        n = 7
        with np.load(tmp_path / "scf_ckpt_0003.npz") as z:
            layout = {k: (z[k].dtype.kind, z[k].shape) for k in z.files}
            guard_state = json.loads(str(z["guard_json"]))
        digest = layout.pop("payload_sha256")
        guard_json = layout.pop("guard_json")
        assert digest == ("U", ()) and guard_json == ("U", ())
        assert layout == {
            "iteration": ("i", ()),
            "density": ("f", (n, n)),
            "energy": ("f", ()),
            "energy_history": ("f", (3,)),
            "diis_focks": ("f", (3, n, n)),
            "diis_errors": ("f", (3, n, n)),
            "base_fock": ("f", (n, n)),
            "base_density": ("f", (n, n)),
        }
        assert guard_state["level"] == -1
        # without a guard or DIIS: no guard key, empty (0, n, n) windows
        RHF(water(), "sto-3g", max_iter=1, use_diis=False,
            checkpoint_dir=str(tmp_path / "bare")).run()
        with np.load(tmp_path / "bare" / "scf_ckpt_0001.npz") as z:
            assert sorted(z.files) == [
                "base_density", "base_fock", "density", "diis_errors",
                "diis_focks", "energy", "energy_history", "iteration",
                "payload_sha256",
            ]
            assert z["diis_focks"].shape == (0, n, n)
            assert z["iteration"].dtype == np.int64
            assert z["density"].dtype == np.float64


# -- service quarantine ------------------------------------------------------


class TestServiceQuarantine:
    def test_integrity_error_quarantines_not_retries(
        self, tmp_path, monkeypatch
    ):
        from repro.service import worker as worker_mod
        from repro.service.store import JobStore

        store = JobStore(tmp_path / "queue")
        job = store.submit({"kind": "scf", "molecule": "water"})

        def corrupt_run(store_, job_, owner_):
            raise IntegrityError("unrecoverable corruption (injected)")

        monkeypatch.setattr(worker_mod, "_run_scf_job", corrupt_run)
        claimed = store.claim("w1")
        assert claimed is not None
        outcome = worker_mod.run_claimed_job(store, claimed, "w1")
        assert outcome == "quarantined"
        assert store.get(job.id).state == "quarantined"
        assert store.get(job.id).attempts == 1  # no retry burn-down


# -- offline audit -----------------------------------------------------------


class TestVerifyTree:
    def test_clean_tree_is_clean(self, filled_store, tmp_path):
        rng = np.random.default_rng(0)
        save_checkpoint(
            tmp_path / "ckpt", 1, rand_density(rng, 4), -1.0, [-1.0], base=None
        )
        report = verify_tree(tmp_path)
        assert report.clean
        assert report.stores_audited == 1
        assert report.segments_checked == BasisSet.build(water(), "sto-3g").nshells
        assert report.checkpoints_audited == 1

    def test_corrupted_tree_is_found(self, filled_store, tmp_path):
        store_dir, *_ = filled_store
        rng = np.random.default_rng(0)
        path = save_checkpoint(
            tmp_path / "ckpt", 1, rand_density(rng, 4), -1.0, [-1.0], base=None
        )
        SDCFaultPlan(seed=6, store_flips=2).activate().corrupt_store_dir(
            store_dir
        )
        flip_bit_in_file(path, rng)
        report = verify_tree(tmp_path)
        assert not report.clean
        kinds = {f.kind for f in report.findings}
        assert kinds == {"store", "checkpoint"}
        # 2 segment CRCs + whole-file digest + 1 checkpoint
        assert len(report.findings) == 4
        payload = report.to_json()
        assert payload["clean"] is False
        assert len(payload["findings"]) == len(report.findings)

    def test_missing_root_is_a_finding(self, tmp_path):
        report = verify_tree(tmp_path / "nope")
        assert not report.clean

    @pytest.mark.parametrize("name", ["supermatrix.bin", "manifest.json"])
    def test_store_missing_a_file_is_one_finding(self, filled_store, name, capsys):
        """A store missing a data file used to be skipped: 0 stores
        audited, verdict CLEAN."""
        from repro.cli import main

        store_dir, *_ = filled_store
        (store_dir / name).unlink()
        report = verify_tree(store_dir.parent)
        assert report.stores_audited == 1
        assert [(f.kind, f.path) for f in report.findings] == [
            ("store", str(store_dir))]
        assert name in report.findings[0].problem
        assert main(["verify", str(store_dir.parent)]) == 1
        assert "verdict: 1 finding(s)" in capsys.readouterr().out

    def test_pre_v2_store_flagged_unverifiable(self, filled_store):
        store_dir, *_ = filled_store
        manifest = json.loads((store_dir / "manifest.json").read_text())
        manifest["version"] = 1
        (store_dir / "manifest.json").write_text(json.dumps(manifest))
        report = verify_tree(store_dir)
        assert not report.clean
        assert "predates v4; refill" in report.findings[0].problem

    def test_segment_cut_short_is_found(self, filled_store, capsys):
        """A data file 8 bytes short (a torn last write) is a finding and
        ``repro verify`` exits non-zero on it."""
        from repro.cli import main

        store_dir, *_ = filled_store
        data = store_dir / "supermatrix.bin"
        data.write_bytes(data.read_bytes()[:-8])
        report = verify_tree(store_dir)
        assert [f.kind for f in report.findings] == ["store"]
        assert "bytes, manifest says" in report.findings[0].problem
        assert main(["verify", str(store_dir)]) == 1
        # and a job attaching it refills it rather than map past its end
        with pytest.warns(StoreInvalidatedWarning, match="stale or unreadable"):
            store = ERIStore(store_dir, BasisSet.build(water(), "sto-3g")).open_or_fill()
        assert store.filling and not data.exists()

    def test_flips_land_in_distinct_segments(self, filled_store, sto3g_basis):
        """``store_flips`` flips hit that many distinct segments, so the
        audit finds exactly that many failing CRCs, whichever of the
        four arrays each flip drew."""
        store_dir, *_ = filled_store
        nseg = sto3g_basis.nshells
        state = SDCFaultPlan(seed=8, store_flips=nseg).activate()
        assert state.corrupt_store_dir(store_dir) == nseg
        report = verify_tree(store_dir)
        failed = [f for f in report.findings if "failed its CRC-32" in f.problem]
        assert len(failed) == nseg

    def test_chaos_system_has_a_segment_per_flip(self, filled_store):
        """``repro chaos --family sdc`` corrupts water/STO-3G's store:
        every seeded plan's flips fit in distinct segments."""
        store_dir, *_ = filled_store
        nseg = len(segment_extents(store_dir)[1])
        assert all(random_sdc_plan(seed).store_flips <= nseg for seed in range(16))


# -- the chaos gate ----------------------------------------------------------


class TestSDCChaosGate:
    def test_sdc_chaos_gate_passes(self, tmp_path):
        self.assert_gate_passes(3, tmp_path)

    def test_sdc_chaos_gate_passes_at_seed_0(self, tmp_path):
        """Seed 0's one checkpoint flip used to land in a zip64 extra
        field of a local header, which ``zipfile`` never reads: injected
        1, detected 0.  Flips now land in the members' data."""
        self.assert_gate_passes(0, tmp_path)

    def test_ga_phase_draws_at_the_plans_payload_rate(self):
        """A plan with no ``payload_flip_rate`` corrupts no accumulate
        (the GA phase used a fixed 0.25 whatever the plan said)."""
        from repro.fock.chaos import run_sdc_chaos

        res = run_sdc_chaos(
            molecule="water", basis_name="sto-3g",
            plan=SDCFaultPlan(seed=0, store_flips=2),
        )
        assert res.payload["injected"]["ga_payload"] == 0
        assert res.payload["injected"]["store_block"] == 2
        assert res.passed

    def test_runs_three_rhfs(self, monkeypatch):
        """Clean, control, corrupted: the overhead is the control run's
        own integrity share, so no integrity-off run is timed against it."""
        from repro.fock.chaos import run_sdc_chaos

        armed = []
        run = hf.SCFDriver._run

        def counted(driver):
            armed.append(driver.integrity)
            return run(driver)

        monkeypatch.setattr(hf.SCFDriver, "_run", counted)
        res = run_sdc_chaos(molecule="water", basis_name="sto-3g", seed=3)
        assert armed == [False, True, True]
        assert res.passed

    @staticmethod
    def assert_gate_passes(seed, tmp_path):
        from repro.fock.chaos import run_sdc_chaos

        res = run_sdc_chaos(
            molecule="water", basis_name="sto-3g", seed=seed,
            workdir=tmp_path / "work",
        )
        p = res.payload
        assert sum(p["injected"].values()) > 0
        assert sum(p["silent"].values()) == 0
        assert p["false_positives"] == 0
        assert p["energy_error"] <= 1e-12
        assert p["fock_error"] <= 1e-12
        assert p["ga_error"] == 0.0
        assert p["checkpoint_intact"]
        assert p["overhead"] >= 0
        assert res.passed
        # the kept work tree is auditable offline, and the audit finds
        # the planted rot
        report = verify_tree(tmp_path / "work")
        assert not report.clean

    def test_checkpoint_flips_land_in_member_data(self, tmp_path):
        """Every flip ``corrupt_file`` plants lies in a span the entry
        CRC covers, so loading the snapshot always fails."""
        ckpt = save_checkpoint(tmp_path, 1, np.eye(3), -1.0, [-1.0], base=None)
        clean = ckpt.read_bytes()
        spans = zip_member_spans(ckpt)
        for seed in range(12):
            ckpt.write_bytes(clean)
            state = SDCFaultPlan(seed=seed, checkpoint_flip_rate=1.0).activate()
            assert state.corrupt_file(ckpt)
            (pos,) = [
                i for i, (a, b) in enumerate(zip(clean, ckpt.read_bytes()))
                if a != b
            ]
            assert any(lo <= pos < hi for lo, hi in spans)
            with pytest.raises(Exception):
                load_checkpoint(ckpt)

    def test_flip_bit_in_file_changes_exactly_one_bit(self, tmp_path):
        path = tmp_path / "blob.bin"
        data = bytes(range(256))
        path.write_bytes(data)
        flip_bit_in_file(path, np.random.default_rng(9))
        after = path.read_bytes()
        assert len(after) == len(data)
        diff = [
            bin(a ^ b).count("1") for a, b in zip(data, after) if a != b
        ]
        assert diff == [1]
