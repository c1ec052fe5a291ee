"""Service chaos gate: seeded worker SIGKILLs must not lose a job.

The execution-layer analogue of ``repro chaos`` (simulator rank deaths):
submit real SCF jobs to a real worker pool, SIGKILL live workers at
seeded points of the run while their jobs are mid-iteration, and verify the paper's
resilience claim end to end:

* every submitted job still reaches ``done`` (lease expiry re-enqueues,
  checkpoint restart resumes);
* each final energy matches a fault-free baseline run of the same
  molecule/basis to ``tolerance`` (default 1e-12) -- resumption is
  bitwise, so the match is typically *exact*;
* no job is ever recorded-as-done twice (the lease-owner guard), even
  though some were *executed* more than once.
* at least one seeded kill landed on a lease-holding worker (a run
  that killed nobody proved nothing).

The kill schedule is a seeded draw (per kill, how many jobs are done
when it falls due), so a chaos run is reproducible the way every fault
plan in this package is, and its kills land however fast the jobs run.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import numpy as np

from repro.runtime.faults import EmptyPlanError, GateResult, landed
from repro.service.store import JobStore
from repro.service.supervisor import serve


#: per-job limits of the submitted jobs, and the pool's drain limits
TIMEOUT_S = 120.0
MAX_ATTEMPTS = 6
WALL_LIMIT_S = 300.0
POLL_S = 0.2


def service_gate(payload: dict) -> GateResult:
    """The ``service`` family's gate over one run's ``--json`` payload."""
    p = payload
    done = p["counts"].get("done", 0)
    return GateResult.stamped("service chaos", [
        landed(p["kills_done"]),
        ("every job done", done == p["njobs"]),
        ("no job recorded done twice", p["double_records"] == 0),
        ("max |dE| <= tolerance", p["max_energy_error"] <= p["tolerance"]),
    ], [
        f"jobs         = {p['njobs']} submitted, {done} done "
        f"({p['jobs_per_min']:.1f} jobs/min)",
        f"kills        = {p['kills_done']}/{p['kills_planned']} "
        f"(seed {p['seed']}), worker restarts {p['worker_restarts']}",
        f"requeues     = {p['requeues']} "
        f"(lease expiry / retry re-enqueues)",
        f"max |dE|     = {p['max_energy_error']:.3e} "
        f"(tolerance {p['tolerance']:.0e})",
        f"double records = {p['double_records']}",
    ], payload)


class _SeededKiller:
    """SIGKILL a lease-holding worker at each seeded point of the run's
    progress: kill ``i`` falls due once ``due[i]`` jobs are done, drawn
    from the first half of the queue, so it lands while jobs still run
    however fast they are."""

    def __init__(self, kills: int, seed: int, njobs: int):
        rng = np.random.default_rng(seed)
        self.due = sorted(rng.integers(0, max(1, njobs // 2), size=kills).tolist())
        self.done = 0

    def __call__(self, store: JobStore, pool) -> None:
        if self.done >= len(self.due):
            return
        if store.counts().get("done", 0) < self.due[self.done]:
            return
        # kill a worker that actually holds a lease: that is the
        # "mid-iteration" crash the gate is about
        busy = {
            j.lease_owner for j in store.jobs(("leased", "running"))
            if j.lease_owner
        }
        for owner, proc in pool.procs.items():
            if owner in busy and proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
                self.done += 1
                return


def run_service_chaos(
    queue_dir: str | Path,
    njobs: int = 8,
    workers: int = 3,
    kills: int = 2,
    seed: int = 0,
    molecule: str = "water",
    basis: str = "6-31g",
    tolerance: float = 1e-12,
    lease_s: float = 2.0,
) -> GateResult:
    """Run the seeded kill scenario; see the module docstring for the gate.

    The fault-free baseline energy is computed inline (one uninterrupted
    RHF per distinct spec) before the pool starts, so the comparison
    never depends on service machinery being correct.
    """
    from repro.chem.builders import molecule_by_name
    from repro.scf import RHF

    if kills < 1:
        raise EmptyPlanError(f"kills={kills}")
    queue_dir = Path(queue_dir)
    store = JobStore(queue_dir)

    baseline = RHF(molecule_by_name(molecule), basis_name=basis).run()
    if not baseline.converged:
        raise RuntimeError(
            f"fault-free baseline {molecule}/{basis} did not converge"
        )

    job_ids = []
    for _ in range(njobs):
        job = store.submit(
            {"kind": "scf", "molecule": molecule, "basis": basis},
            lease_s=lease_s, timeout_s=TIMEOUT_S, max_attempts=MAX_ATTEMPTS,
        )
        job_ids.append(job.id)

    killer = _SeededKiller(kills, seed, njobs)
    t0 = time.time()
    outcome = serve(
        queue_dir, workers=workers, poll_s=POLL_S, drain=True,
        wall_limit_s=WALL_LIMIT_S, install_signals=False, on_tick=killer,
    )
    wall = time.time() - t0

    counts = store.counts()
    energy_errors: dict[int, float] = {}
    double_records = 0
    for job_id in job_ids:
        done_events = [
            ev for ev, _, _ in store.events_for(job_id) if ev == "done"
        ]
        if len(done_events) > 1:
            double_records += len(done_events) - 1
        job = store.get(job_id)
        if job.state == "done" and job.result is not None:
            energy_errors[job_id] = abs(
                float(job.result["energy"]) - baseline.energy
            )
    events = store.event_counts()
    requeues = events.get("lease_expired", 0) + events.get("retry", 0) \
        + events.get("timeout", 0)
    if counts.get("done", 0) == njobs and len(energy_errors) == njobs:
        max_err = max(energy_errors.values(), default=0.0)
    else:
        max_err = float("inf")  # a lost job can never pass the gate
    return service_gate({
        "family": "service",
        "njobs": njobs,
        "workers": workers,
        "seed": seed,
        "kills_planned": kills,
        "kills_done": killer.done,
        "wall_s": wall,
        "jobs_per_min": (njobs / wall * 60.0) if wall > 0 else 0.0,
        "counts": counts,
        "requeues": requeues,
        "double_records": double_records,
        "max_energy_error": max_err,
        "tolerance": tolerance,
        "worker_restarts": outcome.worker_restarts,
    })
