"""Service worker: claim a lease, run the job, heartbeat, survive.

One worker process runs this loop::

    claim -> start -> run (heartbeat per SCF iteration) -> complete
                                   |
                 poison input -----+--> fail(non-retryable) -> quarantine
                 any other error --+--> fail(retryable) -> backoff, retry
                 crash / SIGKILL --+--> (nothing: lease expires, the
                                        supervisor re-enqueues, the next
                                        worker resumes from checkpoint)

Crash-tolerance mechanics:

* **Heartbeat = per-iteration callback.**  The lease is renewed from
  :class:`~repro.scf.hf.RHF`'s ``on_iteration`` hook, *after* that
  iteration's checkpoint is durably on disk (:func:`_heartbeat`, which
  the ``sleep`` personality's ticks call too).  A worker stuck inside an
  iteration (native hang, livelock) stops heartbeating and loses its
  lease -- a deliberate design choice over a background heartbeat
  thread, which would keep vouching for a hung process forever.  Size
  ``lease_s`` above the per-iteration time.
* **Planned crash.**  A spec's ``crash_at`` names a heartbeat (an SCF
  iteration, a ``sleep`` tick) at which the job's first attempt SIGKILLs
  its own worker, lease held (an SCF iteration's snapshot is durable by
  then): the service chaos gate's seeded kill.
* **Bitwise resume.**  Jobs run with ``checkpoint_dir`` + ``restart=True``,
  so a re-claimed job continues from the latest intact snapshot and
  reproduces the uninterrupted trajectory exactly (PR-4 guarantee).
* **Idempotent recording.**  :meth:`JobStore.complete` is guarded by the
  lease owner; a stale worker that lost its lease mid-run gets ``False``
  back and discards its result -- a job is never recorded-as-done twice.
* **Out of memory.**  The run decides, not the worker: an SCF whose
  integral store (``store_dir``'s or its private one) runs out of memory
  as it is filled or mapped drops it and finishes direct in the same
  attempt.  A ``MemoryError`` with no store to drop is a retryable error
  like any other; a job's spec never changes after ``submit``.
* **Clean teardown.**  SIGTERM (supervisor timeout or shutdown) runs its
  handler between two bytecodes of the single-threaded job (which starts
  no child process, so there is nothing to reap): it releases the
  current lease and exits 143 -- no stuck lease.

Job specs are plain dicts.  ``kind="scf"`` (default) runs an RHF with
``molecule``/``basis``/``max_iter``/``guard``/``integrity``/``store_dir``
keys; any other key (the J/K thread count an older ``repro submit``
wrote) is ignored.  A job whose run raises
:class:`~repro.runtime.sdc.IntegrityError` (corruption the recovery
ladder could not repair) is quarantined like poison input -- retrying
against the same corrupt state cannot help.  The other kinds are
deterministic personalities for the test suite: ``sleep`` (``seconds``,
a heartbeat per 0.05 s tick; ``hang`` = no heartbeat), ``fail`` (raise
until attempt ``times``), and ``poison`` (always raise ValueError).  An
``scf`` or ``sleep`` spec may carry ``crash_at`` (see "Planned crash").
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback
from pathlib import Path

from repro.runtime.sdc import IntegrityError
from repro.service.store import Job, JobStore

#: exit code of a SIGTERM'd worker (128 + SIGTERM)
SIGTERM_EXIT = 143

#: snapshots kept per job after a successful run
CHECKPOINT_KEEP = 3


class LeaseLostError(RuntimeError):
    """The job's lease was lost mid-run; abort and discard the result."""


#: in-flight job the SIGTERM handler must release, keyed per process
_CURRENT: dict = {}


def _sigterm_handler(signum, frame):  # pragma: no cover - signal path
    store: JobStore | None = _CURRENT.get("store")
    job_id = _CURRENT.get("job_id")
    if store is not None and job_id is not None:
        try:
            store.release(job_id, _CURRENT["owner"], "worker sigterm")
        except Exception:
            pass
    raise SystemExit(SIGTERM_EXIT)


def install_signal_handlers() -> None:
    """Arm the clean-teardown SIGTERM handler (worker processes only)."""
    signal.signal(signal.SIGTERM, _sigterm_handler)


def _heartbeat(store: JobStore, job: Job, owner: str, beat: int) -> None:
    """Renew ``job``'s lease at its ``beat``-th heartbeat; raise
    :class:`LeaseLostError` if it was lost.  On the job's first attempt a
    ``crash_at`` equal to ``beat`` SIGKILLs this worker instead: it dies
    holding the lease, as a crashed worker does."""
    if job.attempts == 0 and job.spec.get("crash_at") == beat:
        os.kill(os.getpid(), signal.SIGKILL)
    if not store.heartbeat(job.id, owner):
        raise LeaseLostError(f"job {job.id}: lease lost at heartbeat {beat}")


# -- job personalities -------------------------------------------------------


def _run_scf_job(store: JobStore, job: Job, owner: str) -> dict:
    from repro.chem.builders import molecule_by_name
    from repro.scf import RHF
    from repro.scf.checkpoint import load_latest_intact, prune_checkpoints

    spec = job.spec
    mol = molecule_by_name(spec.get("molecule", "water"))
    ckpt_dir = Path(job.job_dir) / "checkpoints"
    resumed = load_latest_intact(ckpt_dir)
    rhf = RHF(
        mol,
        basis_name=spec.get("basis", "sto-3g"),
        max_iter=int(spec.get("max_iter", 100)),
        integral_store=spec.get("store_dir"),
        guard=bool(spec.get("guard", False)),
        integrity=bool(spec.get("integrity", False)),
        checkpoint_dir=str(ckpt_dir),
        restart=True,
        on_iteration=lambda iteration, _: _heartbeat(store, job, owner, iteration),
    )
    result = rhf.run()
    prune_checkpoints(ckpt_dir, keep=CHECKPOINT_KEEP)
    if not result.converged:
        raise RuntimeError(
            f"SCF did not converge in {result.iterations} iterations"
        )
    return {
        "energy": result.energy,
        "converged": result.converged,
        "iterations": result.iterations,
        "resumed_from_iteration": 0 if resumed is None else resumed.iteration,
    }


def _run_test_job(store: JobStore, job: Job, owner: str) -> dict:
    """The deterministic non-SCF personalities (chaos/test machinery)."""
    spec, kind = job.spec, job.spec["kind"]
    if kind == "sleep":
        deadline = time.time() + float(spec.get("seconds", 1.0))
        beat = 0
        while time.time() < deadline:
            time.sleep(min(0.05, max(0.0, deadline - time.time())))
            if not spec.get("hang"):
                beat += 1
                _heartbeat(store, job, owner, beat)
        return {"ok": True, "slept_s": float(spec.get("seconds", 1.0))}
    if kind == "fail":
        # job.attempts counts *finished* attempts: 0 on the first try
        if job.attempts < int(spec.get("times", 1)):
            raise RuntimeError(
                f"injected failure on attempt {job.attempts + 1}"
            )
        return {"ok": True, "attempts_needed": job.attempts + 1}
    if kind == "poison":
        raise ValueError("poison job: deterministic bad input")
    raise ValueError(f"unknown job kind {kind!r}")


# -- the claim-run-record cycle ----------------------------------------------


def run_claimed_job(store: JobStore, job: Job, owner: str) -> str:
    """Run one leased job to a terminal/retry transition; returns it.

    Every outcome maps to exactly one guarded store transition; an
    outcome whose guard no longer matches (lease lost while finishing)
    is discarded, which is what makes re-execution after lease expiry
    idempotent.
    """
    from repro.obs import MetricsRegistry, RunLedger, session

    if not store.start(job.id, owner):
        return "lost"  # lease expired between claim and start
    _CURRENT.update({"store": store, "job_id": job.id, "owner": owner})
    spec = job.spec
    ledger = RunLedger(
        Path(job.job_dir) / "run",
        command="service-job",
        config=dict(spec),
        molecule=spec.get("molecule"),
        basis=spec.get("basis"),
        extra={
            "job_id": job.id, "attempt": job.attempts + 1, "worker": owner,
        },
    )
    # the ledger is sealed on every path below, its final snapshot read
    # from this job's own registry
    with session(metrics=MetricsRegistry(), ledger=ledger) as sess:
        sess.exit_code = 1
        try:
            if spec.get("kind", "scf") == "scf":
                result = _run_scf_job(store, job, owner)
            else:
                result = _run_test_job(store, job, owner)
            recorded = store.complete(job.id, owner, result)
            ledger.add_summary(**result)
            sess.exit_code = 0 if recorded else 1
            return "done" if recorded else "lost"
        except LeaseLostError as exc:
            ledger.add_summary(lease_lost=str(exc))
            return "lost"
        except IntegrityError:
            # unrecoverable data corruption: the recovery ladder (recompute,
            # rollback) already failed inside the run, so re-running against
            # the same corrupt state cannot help -> quarantine for a human
            state = store.fail(
                job.id, owner, traceback.format_exc(), retryable=False,
            )
            ledger.add_summary(error="data corruption (quarantined)")
            return state or "lost"
        except (ValueError, TypeError):
            # deterministic bad input: retrying cannot help -> quarantine
            state = store.fail(
                job.id, owner, traceback.format_exc(), retryable=False,
            )
            ledger.add_summary(error="poison input")
            return state or "lost"
        except Exception:
            state = store.fail(
                job.id, owner, traceback.format_exc(), retryable=True,
            )
            ledger.add_summary(error="crashed")
            return state or "lost"
        finally:
            _CURRENT.clear()


def worker_main(
    queue_dir: str | Path,
    owner: str | None = None,
    poll_s: float = 0.2,
    exit_when_drained: bool = False,
    max_jobs: int | None = None,
) -> int:
    """The worker-process entry point (used by ``repro serve``).

    Claims and runs jobs until ``exit_when_drained`` sees an empty
    queue (or ``max_jobs`` have been processed); idles on ``poll_s``
    between empty claims.
    """
    owner = owner or f"worker-{os.getpid()}"
    install_signal_handlers()
    store = JobStore(queue_dir)
    done = 0
    while True:
        job = store.claim(owner)
        if job is None:
            if exit_when_drained and store.drained():
                return 0
            time.sleep(poll_s)
            continue
        run_claimed_job(store, job, owner)
        done += 1
        if max_jobs is not None and done >= max_jobs:
            return 0


def main(argv: list[str]) -> int:
    """CLI shim: ``<queue_dir> [owner [opts-json]]`` (see _worker_entry)."""
    queue_dir = argv[0]
    owner = argv[1] if len(argv) > 1 else None
    opts = json.loads(argv[2]) if len(argv) > 2 else {}
    return worker_main(queue_dir, owner, **opts)
