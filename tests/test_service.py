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
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.chem.builders import benzene, water
from repro.integrals import class_batch
from repro.obs import MetricsRegistry, load_run, session
from repro.scf.checkpoint import load_latest_intact, prune_checkpoints
from repro.scf.hf import RHF
from repro.service import store as store_mod
from repro.service.store import (
    JITTER,
    STATES,
    TERMINAL_STATES,
    JobStore,
    backoff_delay,
)
from repro.service.supervisor import serve
from repro.service.worker import run_claimed_job, worker_main


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "queue")


class _Clock:
    """The job store's wall clock, moved forward by hand: past a retry
    backoff or a lease expiry without waiting for it."""

    def __init__(self):
        self.now = time.time()

    def time(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(store_mod, "time", fake)
    return fake


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay(3, 7) == backoff_delay(3, 7)

    def test_grows_exponentially_until_cap(self):
        for attempt, base in zip(range(1, 6), [0.5, 1.0, 2.0, 4.0, 8.0]):
            assert base <= backoff_delay(attempt, 1) <= base * (1 + JITTER)
        assert 60.0 <= backoff_delay(30, 1) <= 60.0 * (1 + JITTER)

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

    def test_backoff_delays_reclaim(self, store, clock):
        job = store.submit({"kind": "fail", "times": 9}, max_attempts=3)
        j = store.claim("w1")
        store.fail(j.id, "w1", "boom", retryable=True)
        assert store.get(job.id).state == "queued"
        assert store.claim("w1") is None  # still inside backoff
        clock.now += 120
        assert store.claim("w1").id == job.id

    def test_reap_releases_only_the_dead_owners_jobs(self, store):
        """A reaped owner's job is re-enqueued at once, as a TTL expiry
        would (one attempt, ``lease_expired``); a live owner's -- the
        ``hang`` personality: alive, not heartbeating -- waits for its TTL."""
        a = store.submit({"kind": "sleep"}, lease_s=30.0)
        b = store.submit({"kind": "sleep", "hang": True}, lease_s=30.0)
        store.claim("dead")
        store.claim("alive")
        now = time.time()
        assert store.expire_leases(now, ["dead"]) == [a.id]
        assert store.get(a.id).state == "queued" and store.get(a.id).attempts == 1
        assert [e[0] for e in store.events_for(a.id)][-1] == "lease_expired"
        assert store.get(b.id).state == "leased"
        assert store.expire_leases(now + 31.0) == [b.id]

    def test_heartbeat_renews_only_for_owner(self, store):
        job = store.submit({"kind": "sleep"}, lease_s=5.0)
        j = store.claim("w1")
        before = store.get(j.id).lease_expires
        time.sleep(0.02)
        assert store.heartbeat(j.id, "w1")
        assert store.get(j.id).lease_expires >= before
        assert not store.heartbeat(j.id, "intruder")

    def test_complete_is_owner_guarded_idempotent(self, store, clock):
        """The no-double-record guarantee: once a lease is reassigned,
        the stale worker's complete() is a no-op."""
        job = store.submit({"kind": "sleep"})
        j = store.claim("w1")
        store.start(j.id, "w1")
        # lease expires; supervisor re-enqueues; another worker reruns
        store.expire_leases(now=time.time() + 1e6)
        clock.now += 2e6
        j2 = store.claim("w2")
        store.start(j2.id, "w2")
        assert store.complete(job.id, "w2", {"energy": -1.0})
        # the zombie original worker finally finishes: discarded
        assert not store.complete(job.id, "w1", {"energy": -999.0})
        final = store.get(job.id)
        assert final.state == "done"
        assert final.result == {"energy": -1.0}
        done_events = [e for e in store.events_for(job.id) if e[0] == "done"]
        assert len(done_events) == 1

    def test_quarantine_after_max_attempts(self, store, clock):
        job = store.submit({"kind": "fail", "times": 99}, max_attempts=2)
        for _ in range(2):
            clock.now += 1e6
            j = store.claim("w1")
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
    def run_one(self, store, clock, owner="w1"):
        clock.now += 1e6  # past any retry backoff
        job = store.claim(owner)
        assert job is not None
        return run_claimed_job(store, job, owner)

    def test_fail_retries_then_succeeds(self, store, clock):
        job = store.submit({"kind": "fail", "times": 2}, max_attempts=5)
        assert self.run_one(store, clock) == "queued"
        assert self.run_one(store, clock) == "queued"
        assert self.run_one(store, clock) == "done"
        final = store.get(job.id)
        assert final.result["attempts_needed"] == 3

    def test_poison_quarantined_with_traceback(self, store, clock):
        job = store.submit({"kind": "poison"}, max_attempts=5)
        assert self.run_one(store, clock) == "quarantined"
        final = store.get(job.id)
        assert final.attempts == 1  # never retried
        assert "ValueError" in final.error
        assert "Traceback" in final.error

    def test_unknown_molecule_or_basis_is_poison_not_a_retry(self, store, clock):
        # a lookup miss is deterministic bad input: KeyError used to fall
        # through to the retry-forever branch
        for spec in ({"kind": "scf", "molecule": "watr"},
                     {"kind": "scf", "molecule": "water", "basis": "6-31"}):
            job = store.submit(spec, max_attempts=5)
            assert self.run_one(store, clock) == "quarantined"
            final = store.get(job.id)
            assert final.attempts == 1  # never retried
            assert "UnknownNameError" in final.error and "known:" in final.error
            events = [ev for ev, _, _ in store.events_for(job.id)]
            assert "retry" not in events

    def test_assembly_oom_sheds_the_store(
        self, store, clock, tmp_path, monkeypatch
    ):
        """A MemoryError raised while the warm store's supermatrix is
        mapped is the run's to handle: it drops the store and finishes
        direct on the first attempt, the job's spec unchanged."""
        store_dir = tmp_path / "eri"
        baseline = RHF(water(), integral_store=str(store_dir)).run()

        def oom(*args):
            raise MemoryError("injected: no room for the supermatrix")

        monkeypatch.setattr(class_batch, "_mapped_matrices", oom)
        spec = {"kind": "scf", "molecule": "water", "store_dir": str(store_dir)}
        job = store.submit(spec, max_attempts=5)
        assert self.run_one(store, clock) == "done"
        final = store.get(job.id)
        assert final.attempts == 0 and final.spec == spec
        assert abs(final.result["energy"] - baseline.energy) <= 1e-10
        assert [ev for ev, _, _ in store.events_for(job.id)] == [
            "submitted", "leased", "started", "done",
        ]
        summary = load_run(Path(final.job_dir) / "run").summary
        assert "MemoryError" in summary["eri_store"]["dropped"]

    def test_scf_job_records_energy(self, store, clock):
        baseline = RHF(water()).run()
        job = store.submit({"kind": "scf", "molecule": "water",
                            "basis": "sto-3g"})
        with session(metrics=MetricsRegistry()):  # nothing in the outer one
            assert self.run_one(store, clock) == "done"
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

    def test_a_spec_with_a_thread_count_still_runs(self, store, clock):
        """A job an older ``repro submit`` queued with ``"jk_threads": 2``
        reaches ``done`` with the serial energy: the key is ignored."""
        job = store.submit({"kind": "scf", "molecule": "water",
                            "basis": "sto-3g", "jk_threads": 2})
        with session(metrics=MetricsRegistry()):
            assert self.run_one(store, clock) == "done"
        final = store.get(job.id)
        assert final.result["converged"] and final.result["iterations"] == 8
        assert final.result["energy"] == float.fromhex("-0x1.2bda09dcbb4c8p+6")

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

    def test_sigkill_worker_lease_expiry_resume(self, tmp_path, clock):
        """The full service path: a real worker subprocess is SIGKILLed
        mid-SCF, the lease expires, the job is re-enqueued, and the
        resuming worker's energy matches the fault-free run bitwise.
        Benzene: water/6-31G, on its private store, runs its last ten
        iterations in ~0.15 s, too close to the kill's latency."""
        baseline = RHF(benzene()).run()
        store = JobStore(tmp_path / "queue")
        job = store.submit({"kind": "scf", "molecule": "benzene"}, lease_s=2.0)
        ckpt_dir = Path(job.job_dir) / "checkpoints"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service._worker_entry",
             str(tmp_path / "queue"), "doomed",
             json.dumps({"poll_s": 0.05})],
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                # a snapshot is renamed into place whole: its name is enough
                if (ckpt_dir / "scf_ckpt_0002.npz").exists():
                    break
                time.sleep(0.005)
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
        clock.now = far + 3600
        j2 = store.claim("rescuer")
        assert j2.id == job.id
        assert run_claimed_job(store, j2, "rescuer") == "done"
        final = store.get(job.id)
        assert final.result["resumed_from_iteration"] == killed_at
        assert final.result["energy"] == baseline.energy  # bitwise
        done_events = [e for e in store.events_for(job.id) if e[0] == "done"]
        assert len(done_events) == 1  # executed-and-recorded exactly once


class TestReapReleases:
    def test_killed_workers_job_is_leased_again_within_two_ticks(self, tmp_path):
        """A worker SIGKILLed mid-job gives its job back the tick the
        supervisor reaps its exit, not when its 30 s lease would run out:
        the job is re-enqueued within two poll ticks of the kill (one
        attempt charged, event ``lease_expired``) and the respawned worker
        leases it again and finishes it.  The kill is the job's crash
        point, its first heartbeat: one 0.05 s tick or more after
        ``started``, so the gap is measured from no later than the kill."""
        poll_s = 0.2
        store = JobStore(tmp_path / "queue")
        job = store.submit(
            {"kind": "sleep", "seconds": 1.0, "crash_at": 1}, lease_s=30.0,
        )
        result = serve(tmp_path / "queue", workers=1, poll_s=poll_s, drain=True,
                       wall_limit_s=20, install_signals=False)
        trail = store.events_for(job.id)
        first = {}
        for event, _, ts in trail:
            first.setdefault(event, datetime.fromisoformat(ts))
        killed = first["started"] + timedelta(seconds=0.05)
        assert [e[0] for e in trail].count("lease_expired") == 1
        assert (first["lease_expired"] - killed).total_seconds() <= 2 * poll_s
        final = store.get(job.id)
        assert result.drained and final.state == "done" and final.attempts == 1
        leases = [e for e in trail if e[0] == "leased"]
        assert len(leases) == 2 and leases[0][1] != leases[1][1]


class TestPlannedCrash:
    def test_scf_job_dies_at_its_crash_point_and_resumes_bitwise(self, tmp_path):
        """An SCF job whose spec names ``crash_at`` SIGKILLs its worker
        once, at that iteration's heartbeat; a new owner resumes it from
        that iteration's snapshot and records the uninterrupted energy
        bitwise."""
        baseline = RHF(water(), "sto-3g").run()
        store = JobStore(tmp_path / "queue")
        job = store.submit(
            {"kind": "scf", "molecule": "water", "basis": "sto-3g", "crash_at": 3},
            lease_s=30.0,
        )
        result = serve(tmp_path / "queue", workers=1, poll_s=0.1, drain=True,
                       wall_limit_s=60, install_signals=False)
        final = store.get(job.id)
        trail = store.events_for(job.id)
        assert result.drained and result.worker_restarts == 1
        assert final.state == "done" and final.attempts == 1
        assert [e[0] for e in trail].count("lease_expired") == 1
        leases = [owner for event, owner, _ in trail if event == "leased"]
        assert len(leases) == 2 and leases[0] != leases[1]
        assert final.result["resumed_from_iteration"] == 3
        assert final.result["iterations"] == baseline.iterations
        assert final.result["energy"] == baseline.energy  # bitwise

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_planned_kill_lands(self, tmp_path, seed):
        """Each kill is written into a distinct job: both land."""
        from repro.service.chaos import run_service_chaos

        p = run_service_chaos(tmp_path / "queue", njobs=4, workers=2, kills=2,
                              seed=seed, basis="sto-3g").payload
        assert p["kills_done"] == p["kills_planned"] == 2
        assert p["passed"] and p["double_records"] == 0

    @pytest.mark.parametrize("causes, kills", [
        (("ttl",), 0),  # the lease ran out before the crash point
        (("dead",), 1),  # its worker died at the crash point, lease held
        (("dead", "ttl"), 1),  # the crash fired, then the retry hung
    ], ids=["ttl", "crashed", "crashed-then-ttl"])
    def test_a_kill_counts_only_when_the_crash_fired(
        self, store, clock, causes, kills
    ):
        """Every trail expires a lease once per cause, then completes;
        only an expiry that reaped a dead owner counts as the kill."""
        from repro.service.chaos import owner_deaths

        job = store.submit({"kind": "scf", "crash_at": 3}, lease_s=2.0)
        for attempt, cause in enumerate([*causes, None]):
            owner = f"w{attempt}"
            assert store.claim(owner).attempts == attempt
            store.start(job.id, owner)
            if cause is None:
                assert store.complete(job.id, owner, {"energy": -1.0})
                break
            clock.now += 0.0 if cause == "dead" else 2.5
            dead = (owner,) if cause == "dead" else ()
            assert store.expire_leases(dead=dead) == [job.id]
            clock.now += 60.0  # past the retry backoff
        trail = store.events_for(job.id)
        assert [e for e, _, _ in trail].count("lease_expired") == len(causes)
        assert owner_deaths(trail) == kills

    def test_more_kills_than_jobs_is_rejected_up_front(self, tmp_path):
        from repro.service.chaos import run_service_chaos

        with pytest.raises(ValueError, match="kills=3 > njobs=2"):
            run_service_chaos(tmp_path / "queue", njobs=2, kills=3)
        assert not (tmp_path / "queue").exists()


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
        """End to end: SIGTERM on a worker mid-job releases the lease (no
        waiting out the expiry) and exits 143."""
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
