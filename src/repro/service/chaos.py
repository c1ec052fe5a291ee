"""Service chaos gate: seeded worker SIGKILLs must not lose a job.

The execution-layer analogue of ``repro chaos`` (simulator rank deaths):
submit real SCF jobs to a real worker pool, SIGKILL workers mid-job, and
verify the paper's resilience claim end to end:

* every planned kill landed (a kill that missed proved nothing);
* every submitted job still reaches ``done`` (lease expiry re-enqueues,
  checkpoint restart resumes);
* each final energy matches a fault-free baseline run of the same
  molecule/basis to ``tolerance`` (default 1e-12) -- resumption is
  bitwise, so the match is typically *exact*;
* no job is ever recorded-as-done twice (the lease-owner guard), even
  though some were *executed* more than once.

The seed picks which ``kills`` distinct jobs crash and, for each, an SCF
iteration in ``[1, n - 1]`` (``n`` the baseline's iteration count),
written into its spec as ``crash_at``: the worker running its first
attempt SIGKILLs itself there, lease held (:mod:`repro.service.worker`).
So every kill lands however fast the jobs run; it is counted from the
job's ``lease_expired`` events that reaped a dead owner
(:func:`owner_deaths`), not from those of a lease that ran out by its TTL.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.runtime.faults import EmptyPlanError, GateResult, PlanValueError
from repro.service.store import OWNER_DIED, JobStore
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
        ("every planned kill landed", p["kills_done"] == p["kills_planned"]),
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


def owner_deaths(trail: list[tuple[str, str, str]]) -> int:
    """How many of a job's lease expiries (``trail``: its
    :meth:`JobStore.events_for`) reaped an owner that died holding the
    lease.  For a crash job that is its kill: the planned crash is the
    only way a worker dies here, and a lease that ran out by its TTL (an
    iteration slower than ``lease_s``) kills nothing."""
    return sum(
        event == "lease_expired" and detail.startswith(OWNER_DIED)
        for event, detail, _ in trail
    )


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
    if kills > njobs:
        raise PlanValueError(
            f"kills={kills} > njobs={njobs}: each kill crashes its own job"
        )
    queue_dir = Path(queue_dir)
    store = JobStore(queue_dir)

    baseline = RHF(molecule_by_name(molecule), basis_name=basis).run()
    if not baseline.converged:
        raise RuntimeError(
            f"fault-free baseline {molecule}/{basis} did not converge"
        )

    rng = np.random.default_rng(seed)
    victims = rng.choice(njobs, size=kills, replace=False).tolist()
    crash_at = dict(zip(
        victims, rng.integers(1, baseline.iterations, size=kills).tolist()
    ))
    job_ids = []
    for i in range(njobs):
        spec = {"kind": "scf", "molecule": molecule, "basis": basis}
        if i in crash_at:
            spec["crash_at"] = crash_at[i]
        job = store.submit(
            spec, lease_s=lease_s, timeout_s=TIMEOUT_S,
            max_attempts=MAX_ATTEMPTS,
        )
        job_ids.append(job.id)

    t0 = time.time()
    outcome = serve(
        queue_dir, workers=workers, poll_s=POLL_S, drain=True,
        wall_limit_s=WALL_LIMIT_S, install_signals=False,
    )
    wall = time.time() - t0

    counts = store.counts()
    energy_errors: dict[int, float] = {}
    double_records = kills_done = 0
    for i, job_id in enumerate(job_ids):
        trail = store.events_for(job_id)
        double_records += max(0, [e for e, _, _ in trail].count("done") - 1)
        if i in crash_at:
            kills_done += owner_deaths(trail)
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
        "kills_done": kills_done,
        "wall_s": wall,
        "jobs_per_min": (njobs / wall * 60.0) if wall > 0 else 0.0,
        "counts": counts,
        "requeues": requeues,
        "double_records": double_records,
        "max_energy_error": max_err,
        "tolerance": tolerance,
        "worker_restarts": outcome.worker_restarts,
    })
