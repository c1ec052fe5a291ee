"""Guard overhead: the ``guard`` phases' share of one RHF water/6-31G run.

On a healthy run the guard is bookkeeping -- NaN/Inf sentinels on F, D
and every ERI chunk, classification over a short history, damping --
and each call runs in a ``guard`` phase.  Their summed wall over the
run's wall, from one profiled run, must stay within the 5% bound of the
``scf_guard`` family row; an untimed guard-off run gives the graded
``energy_matches``.  ``python -m benchmarks scf_guard [--quick]``: one
run is the measurement, so ``--quick`` measures the same.  The store
budget is patched to 0 (``hf.STORE_BUDGET``), so both runs stay direct
and the per-chunk ERI sentinel runs in every build: on the default
private store it would run in the fill only.
"""

from __future__ import annotations

import time
from unittest import mock

from repro.chem.builders import water
from repro.obs import MetricsRegistry, PhaseProfiler, session
from repro.obs.profile import PHASE_GUARD
from repro.scf import hf
from repro.scf.hf import RHF


def measure(quick: bool = False) -> tuple[dict, str]:
    """The guard phases' share of one guarded direct run's wall."""
    profiler = PhaseProfiler()
    with mock.patch.object(hf, "STORE_BUDGET", 0):
        with session(profiler=profiler, metrics=MetricsRegistry()):
            t0 = time.perf_counter()
            res_on = RHF(water(), basis_name="6-31g", guard=True).run()
            wall = time.perf_counter() - t0
        res_off = RHF(water(), basis_name="6-31g").run()
    guard_s = profiler.wall(PHASE_GUARD)
    entry = {
        "benchmark": "scf_guard",
        "molecule": "water",
        "basis": "6-31g",
        "wall_s": round(wall, 4),
        "guard_s": round(guard_s, 6),
        "overhead": round(guard_s / wall, 4),
        "iterations": res_on.iterations,
        "energy": round(res_on.energy, 10),
        "guard_events": len(res_on.guard_events),
        "energy_matches": bool(res_on.energy == res_off.energy),
    }
    assert entry["guard_events"] == 0, "guard intervened on a healthy run"
    return entry, (
        f"scf_guard: water/6-31g guard share {entry['overhead']:.2%} "
        f"({guard_s:.4f}s of {wall:.3f}s, {entry['iterations']} iters, "
        f"{entry['guard_events']} guard events)"
    )
