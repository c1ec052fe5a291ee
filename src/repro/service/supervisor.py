"""``repro serve``: the supervisor that keeps the worker pool alive.

The supervisor owns no job state -- everything durable lives in the
:class:`~repro.service.store.JobStore` -- so the supervisor itself can
crash and be restarted without losing work.  Its loop enforces the three
recovery paths a lease-based queue needs:

* **Lease expiry** (:meth:`JobStore.expire_leases`): a worker that was
  SIGKILLed or OOM-killed gives its job back the tick its exit is
  reaped, one that hung when it stops heartbeating past its lease; the
  job is re-enqueued with backoff and resumed by another worker from
  the latest intact checkpoint.
* **Wall-clock timeouts**: a *running* job past its ``timeout_s`` budget
  is charged a timeout attempt and its worker is killed
  SIGTERM-then-SIGKILL.  SIGTERM gives the worker's handler a grace
  window to release the lease and exit; a worker
  that ignores it (stuck in native code) is SIGKILLed.
* **Worker respawn**: any worker process that exits -- crash, kill,
  chaos injection -- is replaced with a fresh one (with a new owner
  name, so a stale lease can never be renewed by its successor).
  A killed worker leaves no store behind: a private one is in memory.

Workers are real subprocesses (``python -m repro.service._worker_entry``), not
forks: no inherited sqlite handles, no inherited signal state, and the
chaos harness can SIGKILL them exactly like a production incident would.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.store import JobStore

#: default SIGTERM -> SIGKILL grace window
DEFAULT_GRACE_S = 2.0


@dataclass
class ServeResult:
    """What one ``serve`` invocation did (summarized for logs/metrics)."""

    drained: bool
    wall_s: float
    counts: dict[str, int]
    worker_restarts: int = 0
    timeouts_enforced: int = 0
    leases_expired: int = 0
    events: dict[str, int] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        c = self.counts
        return [
            f"drained      = {self.drained} ({self.wall_s:.1f}s)",
            "jobs         = "
            + ", ".join(f"{k} {v}" for k, v in sorted(c.items()) if v),
            f"restarts     = {self.worker_restarts}, "
            f"timeouts = {self.timeouts_enforced}, "
            f"leases expired = {self.leases_expired}",
        ]


class _Pool:
    """The live worker subprocesses, keyed by owner name."""

    def __init__(self, queue_dir: Path, drain: bool, poll_s: float):
        self.queue_dir = queue_dir
        self.drain = drain
        self.poll_s = poll_s
        self.procs: dict[str, subprocess.Popen] = {}
        self.spawned = 0

    def spawn(self) -> str:
        self.spawned += 1
        owner = f"w{self.spawned}"
        opts = {"poll_s": self.poll_s, "exit_when_drained": self.drain}
        self.procs[owner] = subprocess.Popen(
            [sys.executable, "-m", "repro.service._worker_entry",
             str(self.queue_dir), owner, json.dumps(opts)],
        )
        return owner

    def reap(self) -> list[str]:
        """Owners whose process has exited (removed from the pool)."""
        dead = [o for o, p in self.procs.items() if p.poll() is not None]
        for owner in dead:
            del self.procs[owner]
        return dead

    def kill_job_owner(self, owner: str, grace_s: float) -> bool:
        """SIGTERM then (after ``grace_s``) SIGKILL one worker."""
        proc = self.procs.get(owner)
        if proc is None or proc.poll() is not None:
            return False
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        return True

    def shutdown(self, grace_s: float) -> None:
        """Guaranteed teardown: no worker outlives the supervisor."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.time() + grace_s
        for proc in self.procs.values():
            remaining = max(0.0, deadline - time.time())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.reap()  # every worker has exited


def serve(
    queue_dir: str | Path,
    workers: int = 3,
    poll_s: float = 0.25,
    drain: bool = False,
    grace_s: float = DEFAULT_GRACE_S,
    wall_limit_s: float | None = None,
    install_signals: bool = True,
    on_tick=None,
    verbose: bool = False,
) -> ServeResult:
    """Run the worker pool until drained (``drain=True``) or signalled.

    ``on_tick(store, pool)`` is an optional per-tick hook -- the chaos
    harness uses it to SIGKILL workers at seeded points without any
    wall-clock racing against the supervisor loop.  ``wall_limit_s``
    bounds the run (CI safety net); hitting it returns with
    ``drained=False`` rather than hanging a pipeline forever.
    """
    queue_dir = Path(queue_dir)
    store = JobStore(queue_dir)
    pool = _Pool(queue_dir, drain, poll_s)
    stopping = {"flag": False}

    if install_signals:
        def _stop(signum, frame):
            stopping["flag"] = True

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)

    t0 = time.time()
    restarts = 0
    timeouts = 0
    expired_total = 0
    for _ in range(workers):
        pool.spawn()
    if verbose:
        print(
            f"serving {queue_dir} with {workers} workers "
            f"(drain={drain})", flush=True,
        )
    try:
        while not stopping["flag"]:
            now = time.time()
            dead = pool.reap()
            expired = store.expire_leases(now, dead)
            expired_total += len(expired)
            if verbose and expired:
                print(f"re-enqueued expired leases: {expired}", flush=True)
            # runaway jobs: charge the timeout first (so the job is
            # re-enqueued even if the worker wins the race and exits
            # cleanly), then kill the worker
            for job in store.running_past_timeout(now):
                state = store.timeout_job(job.id, now)
                if state is not None:
                    timeouts += 1
                    if verbose:
                        print(
                            f"job {job.id} exceeded {job.timeout_s:.0f}s: "
                            f"-> {state}; killing {job.lease_owner}",
                            flush=True,
                        )
                    if job.lease_owner:
                        pool.kill_job_owner(job.lease_owner, grace_s)
            finished = drain and store.drained()
            if dead and not finished and not stopping["flag"]:
                for _owner in dead:
                    pool.spawn()
                    restarts += 1
                if verbose:
                    print(
                        f"respawned {len(dead)} worker(s) for {dead}",
                        flush=True,
                    )
            if on_tick is not None:
                on_tick(store, pool)
            if finished and not pool.procs:
                break
            if wall_limit_s is not None and now - t0 > wall_limit_s:
                break
            time.sleep(poll_s)
    finally:
        pool.shutdown(grace_s)
    result = ServeResult(
        drained=store.drained(),
        wall_s=time.time() - t0,
        counts=store.counts(),
        worker_restarts=restarts,
        timeouts_enforced=timeouts,
        leases_expired=expired_total,
        events=store.event_counts(),
    )
    _export_serve_metrics(store, result)
    return result


def _export_serve_metrics(store: JobStore, result: ServeResult) -> None:
    from repro.obs.metrics import export_service

    export_service(
        store.stats(),
        restarts=result.worker_restarts,
        timeouts=result.timeouts_enforced,
        leases_expired=result.leases_expired,
    )


