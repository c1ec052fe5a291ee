"""Service chaos benchmark: crash-tolerant SCF job throughput.

Runs the seeded service-chaos harness (a durable queue of identical
water SCF jobs on a small worker pool, with SIGKILLs injected while
leases are held) and records what crash tolerance costs: end-to-end
jobs/min with recovery overhead included, plus the correctness gates
(all jobs done, zero double records, every energy bitwise-matching the
fault-free baseline).  The ``fock_service`` family of the BENCH runner
(``python -m benchmarks fock_service [--quick]``); ``--quick`` shrinks
the run for CI.

The chaos invariants are graded on every run -- a throughput number
from a run that lost or double-recorded a job would be meaningless.
"""

from __future__ import annotations

import tempfile

from repro.service.chaos import run_service_chaos


def measure(quick: bool = False) -> tuple[dict, str]:
    """One measurement: a seeded service-chaos run, summarized."""
    sized = dict(njobs=4, kills=1) if quick else {}
    queue = tempfile.mkdtemp(prefix="repro-bench-service-")
    cres = run_service_chaos(
        queue, workers=3, seed=0, molecule="water", basis="6-31g", **sized
    )
    p = cres.payload
    entry = {
        "benchmark": "fock_service",
        "molecule": "water",
        "basis": "6-31g",
        **{k: p[k] for k in ("njobs", "workers", "seed", "kills_done")},
        "wall_s": round(p["wall_s"], 3),
        "jobs_per_min": round(p["jobs_per_min"], 2),
        **{k: p[k] for k in (
            "max_energy_error", "requeues", "double_records", "worker_restarts",
        )},
        "all_done": p["counts"].get("done", 0) == p["njobs"],
        "passed": cres.passed,
    }
    assert p["kills_done"] == p["kills_planned"], "kills missed the window"
    return entry, "\n".join(cres.summary_lines())
