"""Chaos benchmark: fault-injected Fock build vs fault-free baseline.

Runs the ``repro chaos`` harness (one seeded random fault plan with a
rank death over the water/sto-3g numeric build) and measures what
recovery costs: the simulated-makespan slowdown, retries, re-executed
tasks, and wall time.  The ``fock_chaos`` family of the BENCH runner
(``python -m benchmarks fock_chaos [--quick]``), so the fault-overhead
trajectory is tracked alongside the performance tables.  The chaos
invariant (|dF| <= 1e-12 vs the fault-free build) is graded on every
run -- a benchmark that silently produced wrong numbers would be worse
than useless.
"""

from __future__ import annotations

import time

from repro.fock.chaos import run_chaos


SEED = 7


def measure(quick: bool = False) -> tuple[dict, str]:
    """One measurement: a seeded chaos run, timed, summarized."""
    t0 = time.perf_counter()
    cres = run_chaos("water", "sto-3g", nproc=4, seed=SEED, ndeaths=1)
    wall = time.perf_counter() - t0
    p = cres.payload
    ov = p["overhead"]
    entry = {
        "benchmark": "fock_chaos",
        "wall_s": round(wall, 3),
        "molecule": p["molecule"],
        "basis": p["basis"],
        "nproc": p["nproc"],
        "seed": SEED,
        "plan": ov["plan"],
        "fock_error": p["fock_error"],
        "passed": cres.passed,
        "makespan_clean_s": ov["makespan_clean"],
        "makespan_faulty_s": ov["makespan_faulty"],
        "fault_slowdown": round(ov["slowdown"], 4),
        "retries": ov["retries_total"],
        "reexecuted_tasks": ov["reexecuted_tasks"],
        "recoveries": ov["recoveries"],
        "retry_bytes": ov["retry_bytes"],
    }
    assert ov["dead_ranks"], "plan must kill at least one rank"
    assert ov["makespan_faulty"] >= ov["makespan_clean"]
    return entry, "\n".join(cres.summary_lines())
