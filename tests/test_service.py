"""Tests for the crash-tolerant SCF service (repro.service).

The contract under test, end to end:

* the durable :class:`JobStore` only ever moves jobs through guarded
  single-statement transitions, so a lease that was lost can never
  record a result (idempotent re-execution);
* a worker SIGKILLed mid-SCF-iteration loses its lease, the job is
  re-enqueued, and the resuming worker -- restarting from the latest
  intact checkpoint -- reproduces the uninterrupted run **bitwise**;
* runaway jobs are killed on a wall-clock budget and poison inputs are
  quarantined with their traceback instead of retried forever;
* SIGTERM teardown leaves no orphaned multiprocessing children and no
  stuck leases.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.chem.builders import water
from repro.integrals import class_batch
from repro.integrals.class_batch import (
    JKInterrupted,
    interrupt_jk_threads,
)
from repro.obs import MetricsRegistry, load_run, session
from repro.scf.checkpoint import load_latest_intact, prune_checkpoints
from repro.scf.hf import RHF
from repro.service.store import (
    STATES,
    TERMINAL_STATES,
    JobStore,
    backoff_delay,
)
from repro.service.supervisor import serve
from repro.service.worker import degrade_spec, run_claimed_job, worker_main


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "queue")


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay(3, 7) == backoff_delay(3, 7)

    def test_grows_exponentially_until_cap(self):
        base = [backoff_delay(a, 1, jitter=0.0) for a in range(1, 6)]
        assert base == [0.5, 1.0, 2.0, 4.0, 8.0]
        assert backoff_delay(30, 1, jitter=0.0) == 60.0

    def test_jitter_bounded_and_desynchronized(self):
        delays = {backoff_delay(2, job_id) for job_id in range(20)}
        assert len(delays) > 1  # different jobs back off differently
        assert all(1.0 <= d <= 1.25 for d in delays)


class TestJobStoreTransitions:
    def test_submit_then_claim_fifo_within_priority(self, store):
        a = store.submit({"kind": "sleep"})
        b = store.submit({"kind": "sleep"})
        hi = store.submit({"kind": "sleep"}, priority=5)
        assert store.claim("w1").id == hi.id  # priority first
        assert store.claim("w1").id == a.id  # then FIFO
        assert store.claim("w1").id == b.id

    def test_claim_sets_lease(self, store):
        job = store.submit({"kind": "sleep"}, lease_s=30.0)
        leased = store.claim("w1")
        assert leased.state == "leased"
        assert leased.lease_owner == "w1"
        assert leased.lease_expires > time.time()
        assert store.claim("w2") is None  # nothing left

    def test_backoff_delays_reclaim(self, store):
        job = store.submit({"kind": "fail", "times": 9}, max_attempts=3)
        j = store.claim("w1")
        store.fail(j.id, "w1", "boom", retryable=True)
        assert store.get(job.id).state == "queued"
        assert store.claim("w1") is None  # still inside backoff
        assert store.claim("w1", now=time.time() + 120).id == job.id

    def test_heartbeat_renews_only_for_owner(self, store):
        job = store.submit({"kind": "sleep"}, lease_s=5.0)
        j = store.claim("w1")
        before = store.get(j.id).lease_expires
        time.sleep(0.02)
        assert store.heartbeat(j.id, "w1")
        assert store.get(j.id).lease_expires >= before
        assert not store.heartbeat(j.id, "intruder")

    def test_complete_is_owner_guarded_idempotent(self, store):
        """The no-double-record guarantee: once a lease is reassigned,
        the stale worker's complete() is a no-op."""
        job = store.submit({"kind": "sleep"})
        j = store.claim("w1")
        store.start(j.id, "w1")
        # lease expires; supervisor re-enqueues; another worker reruns
        store.expire_leases(now=time.time() + 1e6)
        j2 = store.claim("w2", now=time.time() + 2e6)
        store.start(j2.id, "w2")
        assert store.complete(job.id, "w2", {"energy": -1.0})
        # the zombie original worker finally finishes: discarded
        assert not store.complete(job.id, "w1", {"energy": -999.0})
        final = store.get(job.id)
        assert final.state == "done"
        assert final.result == {"energy": -1.0}
        done_events = [e for e in store.events_for(job.id) if e[0] == "done"]
        assert len(done_events) == 1

    def test_quarantine_after_max_attempts(self, store):
        job = store.submit({"kind": "fail", "times": 99}, max_attempts=2)
        for _ in range(2):
            j = store.claim("w1", now=time.time() + 1e6)
            store.fail(j.id, "w1", "transient", retryable=True)
        final = store.get(job.id)
        assert final.state == "quarantined"
        assert final.attempts == 2
        assert "transient" in final.error

    def test_nonretryable_quarantines_immediately(self, store):
        job = store.submit({"kind": "poison"}, max_attempts=5)
        j = store.claim("w1")
        store.fail(j.id, "w1", "ValueError: bad input", retryable=False)
        final = store.get(job.id)
        assert final.state == "quarantined"
        assert final.attempts == 1
        assert "ValueError" in final.error

    def test_expire_leases_requeues_dead_worker(self, store):
        job = store.submit({"kind": "sleep"}, lease_s=0.05)
        store.claim("w1")
        time.sleep(0.1)
        assert store.expire_leases() == [job.id]
        assert store.get(job.id).state == "queued"
        assert store.get(job.id).lease_owner is None

    def test_cancel(self, store):
        job = store.submit({"kind": "sleep"})
        assert store.cancel(job.id)
        assert store.get(job.id).state == "failed"
        assert store.get(job.id).error == "cancelled"
        assert not store.cancel(job.id)  # already terminal

    def test_drained_and_counts(self, store):
        a = store.submit({"kind": "sleep"})
        assert not store.drained()
        j = store.claim("w1")
        store.start(j.id, "w1")
        store.complete(j.id, "w1", {"ok": True})
        assert store.drained()
        assert store.counts()["done"] == 1
        assert set(STATES) >= set(store.counts())
        assert a.id  # silence unused warnings

    def test_survives_reopen(self, store, tmp_path):
        """Durability: a fresh JobStore over the same directory sees
        everything (the supervisor itself can crash and restart)."""
        job = store.submit({"kind": "sleep", "seconds": 0.1})
        reopened = JobStore(tmp_path / "queue")
        assert reopened.get(job.id).state == "queued"
        assert reopened.counts()["queued"] == 1


class TestWorkerPersonalities:
    def run_one(self, store, owner="w1"):
        job = store.claim(owner, now=time.time() + 1e6)
        assert job is not None
        return run_claimed_job(store, job, owner)

    def test_fail_retries_then_succeeds(self, store):
        job = store.submit({"kind": "fail", "times": 2}, max_attempts=5)
        assert self.run_one(store) == "queued"
        assert self.run_one(store) == "queued"
        assert self.run_one(store) == "done"
        final = store.get(job.id)
        assert final.result["attempts_needed"] == 3

    def test_poison_quarantined_with_traceback(self, store):
        job = store.submit({"kind": "poison"}, max_attempts=5)
        assert self.run_one(store) == "quarantined"
        final = store.get(job.id)
        assert final.attempts == 1  # never retried
        assert "ValueError" in final.error
        assert "Traceback" in final.error

    def test_unknown_molecule_or_basis_is_poison_not_a_retry(self, store):
        # a lookup miss is deterministic bad input: KeyError used to fall
        # through to the retry-forever branch
        for spec in ({"kind": "scf", "molecule": "watr"},
                     {"kind": "scf", "molecule": "water", "basis": "6-31"}):
            job = store.submit(spec, max_attempts=5)
            assert self.run_one(store) == "quarantined"
            final = store.get(job.id)
            assert final.attempts == 1  # never retried
            assert "UnknownNameError" in final.error and "known:" in final.error
            events = [ev for ev, _, _ in store.events_for(job.id)]
            assert "retry" not in events

    def test_oom_walks_degradation_ladder(self, store):
        job = store.submit(
            {"kind": "oom", "jk_threads": 4, "store_dir": "/tmp/eri"},
            max_attempts=5,
        )
        assert self.run_one(store) == "queued"
        assert store.get(job.id).spec["jk_threads"] == 1
        assert self.run_one(store) == "queued"
        assert store.get(job.id).spec["store_dir"] is None
        assert self.run_one(store) == "done"
        events = store.event_counts()
        assert events.get("degraded") == 2

    def test_assembly_oom_sheds_the_store(self, store, tmp_path, monkeypatch):
        """A MemoryError raised while the warm store's supermatrix is
        assembled walks the same ladder: the retry runs direct SCF."""
        store_dir = tmp_path / "eri"
        baseline = RHF(water(), integral_store=str(store_dir)).run()

        def oom(*args):
            raise MemoryError("injected: no room for the supermatrix")

        monkeypatch.setattr(class_batch, "_sparse_piece", oom)
        job = store.submit(
            {"kind": "scf", "molecule": "water", "store_dir": str(store_dir)},
            max_attempts=5,
        )
        assert self.run_one(store) == "queued"
        assert store.get(job.id).spec["store_dir"] is None
        assert store.event_counts().get("degraded") == 1
        assert self.run_one(store) == "done"
        final = store.get(job.id)
        assert abs(final.result["energy"] - baseline.energy) <= 1e-10

    def test_degrade_spec_ladder(self):
        spec = {"jk_threads": 4, "store_dir": "/tmp/eri"}
        spec, rung = degrade_spec(spec)
        assert spec["jk_threads"] == 1 and "jk_threads" in rung
        spec, rung = degrade_spec(spec)
        assert spec["store_dir"] is None and "store_dir" in rung
        assert degrade_spec(spec) == (None, "")

    def test_scf_job_records_energy(self, store):
        baseline = RHF(water()).run()
        job = store.submit({"kind": "scf", "molecule": "water",
                            "basis": "sto-3g"})
        with session(metrics=MetricsRegistry()):  # nothing in the outer one
            assert self.run_one(store) == "done"
        final = store.get(job.id)
        assert final.result["converged"]
        assert final.result["energy"] == baseline.energy
        assert final.result["resumed_from_iteration"] == 0
        # per-job run ledger exists and is linked from the job row
        assert (Path(final.job_dir) / "run" / "manifest.json").exists()
        # ... and its final snapshot is this job's registry (it used to
        # be read after the outer registry had been swapped back)
        snaps = load_run(Path(final.job_dir) / "run").snapshots
        last_iter = [s for s in snaps if s["label"] == "scf_iteration"][-1]
        assert snaps[-1]["label"] == "final"
        assert last_iter["metrics"] and (
            set(snaps[-1]["metrics"]) >= set(last_iter["metrics"])
        )

    def test_worker_main_drains(self, store, tmp_path):
        for _ in range(3):
            store.submit({"kind": "sleep", "seconds": 0.0})
        rc = worker_main(tmp_path / "queue", "w1", poll_s=0.01,
                        exit_when_drained=True)
        assert rc == 0
        assert store.counts()["done"] == 3


class TestCrashResume:
    """Satellite 3: SIGKILL mid-iteration, resume bitwise-identical."""

    def test_inprocess_interrupt_resume_bitwise(self, tmp_path):
        """Checkpoint/restart alone (no service): interrupting after
        iteration 3 and restarting reproduces F and E bitwise."""
        baseline = RHF(water(), checkpoint_dir=str(tmp_path / "a")).run()

        class Crash(Exception):
            pass

        def crash_at_3(iteration, energy):
            if iteration >= 3:
                raise Crash

        interrupted = RHF(
            water(),
            checkpoint_dir=str(tmp_path / "b"),
            on_iteration=crash_at_3,
        )
        with pytest.raises(Crash):
            interrupted.run()
        assert load_latest_intact(tmp_path / "b").iteration == 3

        seen: list[int] = []
        resumed = RHF(
            water(),
            checkpoint_dir=str(tmp_path / "b"),
            restart=True,
            on_iteration=lambda it, e: seen.append(it),
        ).run()
        assert resumed.energy == baseline.energy  # bitwise
        assert np.array_equal(resumed.fock, baseline.fock)
        assert np.array_equal(resumed.density, baseline.density)
        assert resumed.iterations == baseline.iterations  # global numbering
        assert seen[0] == 4  # actually resumed: iterations 1-3 skipped

    def test_sigkill_worker_lease_expiry_resume(self, tmp_path):
        """The full service path: a real worker subprocess is SIGKILLed
        mid-SCF, the lease expires, the job is re-enqueued, and the
        resuming worker's energy matches the fault-free run bitwise."""
        baseline = RHF(water(), basis_name="6-31g").run()
        store = JobStore(tmp_path / "queue")
        job = store.submit(
            {"kind": "scf", "molecule": "water", "basis": "6-31g"},
            lease_s=2.0,
        )
        ckpt_dir = Path(job.job_dir) / "checkpoints"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service._worker_entry",
             str(tmp_path / "queue"), "doomed",
             json.dumps({"poll_s": 0.05})],
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                ck = load_latest_intact(ckpt_dir)
                if ck is not None and ck.iteration >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker never reached iteration 2")
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()

        killed_at = load_latest_intact(ckpt_dir).iteration
        # supervisor path: the dead worker's lease expires -> requeue
        far = time.time() + 1e6
        assert store.expire_leases(now=far) == [job.id]
        events = [e[0] for e in store.events_for(job.id)]
        assert "lease_expired" in events
        # a fresh worker claims (past the retry backoff) and resumes
        # from the intact checkpoint
        j2 = store.claim("rescuer", now=far + 3600)
        assert j2.id == job.id
        assert run_claimed_job(store, j2, "rescuer") == "done"
        final = store.get(job.id)
        assert final.result["resumed_from_iteration"] == killed_at
        assert final.result["energy"] == baseline.energy  # bitwise
        done_events = [e for e in store.events_for(job.id) if e[0] == "done"]
        assert len(done_events) == 1  # executed-and-recorded exactly once


class TestTimeoutEnforcement:
    def test_hung_job_killed_and_quarantined(self, tmp_path):
        """A job that hangs (no heartbeat, never finishes) is killed on
        its wall-clock budget; with max_attempts=1 it quarantines."""
        store = JobStore(tmp_path / "queue")
        job = store.submit(
            {"kind": "sleep", "seconds": 60.0, "hang": True},
            timeout_s=1.0,
            lease_s=120.0,  # lease outlives the test: timeout must act
            max_attempts=1,
        )
        result = serve(
            tmp_path / "queue",
            workers=1,
            poll_s=0.1,
            drain=True,
            grace_s=0.5,
            wall_limit_s=30,
            install_signals=False,
        )
        assert result.timeouts_enforced >= 1
        final = store.get(job.id)
        assert final.state == "quarantined"
        assert final.state in TERMINAL_STATES


class TestSigtermTeardown:
    def test_sigterm_releases_lease_and_exits_143(self, tmp_path):
        """Satellite 2 end-to-end: SIGTERM on a worker mid-job closes
        pools, releases the lease (no waiting out the expiry), and
        exits 143."""
        store = JobStore(tmp_path / "queue")
        job = store.submit({"kind": "sleep", "seconds": 60.0},
                           lease_s=600.0)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service._worker_entry",
             str(tmp_path / "queue"), "w1", json.dumps({"poll_s": 0.05})],
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                if store.get(job.id).state == "running":
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker never started the job")
            proc.terminate()
            rc = proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert rc == 143
        final = store.get(job.id)
        assert final.state == "queued"  # released, not stuck leased
        assert final.lease_owner is None
        assert final.attempts == 0  # graceful release charges no attempt

    def test_jk_interrupt_flag_aborts_threaded_build(self):
        engine_density = RHF(water(), jk_threads=2)
        interrupt_jk_threads()
        try:
            with pytest.raises(JKInterrupted):
                engine_density.run()
        finally:
            class_batch._JK_INTERRUPT.clear()

    def test_prune_checkpoints_keeps_newest(self, tmp_path):
        rhf = RHF(water(), checkpoint_dir=str(tmp_path / "ck"))
        rhf.run()
        removed = prune_checkpoints(tmp_path / "ck", keep=2)
        assert removed >= 1
        remaining = sorted((tmp_path / "ck").glob("*.npz"))
        assert len(remaining) == 2
        assert load_latest_intact(tmp_path / "ck") is not None
        with pytest.raises(ValueError):
            prune_checkpoints(tmp_path / "ck", keep=0)


class TestServeEndToEnd:
    def test_pool_drains_mixed_workload(self, tmp_path):
        store = JobStore(tmp_path / "queue")
        for _ in range(3):
            store.submit({"kind": "sleep", "seconds": 0.05})
        store.submit({"kind": "fail", "times": 1}, max_attempts=3)
        store.submit({"kind": "poison"}, max_attempts=3)
        result = serve(
            tmp_path / "queue",
            workers=2,
            poll_s=0.1,
            drain=True,
            grace_s=0.5,
            wall_limit_s=60,
            install_signals=False,
        )
        assert result.drained
        counts = store.counts()
        assert counts.get("done") == 4
        assert counts.get("quarantined") == 1
        assert result.events.get("submitted") == 5
