"""On/off wall timing shared by the probe-overhead families
(``scf_guard``, ``fock_sdc``, ``phase_profiler``)."""

from __future__ import annotations

import time


def on_off_walls(run, rounds: int) -> tuple[dict, object, object]:
    """Time ``run(False)`` against ``run(True)``, ``rounds`` times each.

    Returns the shared entry fields plus the last result of each side.
    Min (not median) is the estimator: scheduler noise on shared runners
    is one-sided, so the fastest round of each configuration is the best
    proxy for its true cost floor.  Rounds alternate which configuration
    goes first so slow drift (cache state, thermal, co-tenant load)
    cannot bias one side.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    last = {}
    for i in range(rounds):
        for on in (False, True) if i % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            last[on] = run(on)
            walls[on].append(time.perf_counter() - t0)
    t_off, t_on = min(walls[False]), min(walls[True])
    return {
        "rounds": rounds,
        "wall_off_s": round(t_off, 4),
        "wall_on_s": round(t_on, 4),
        "overhead": round(t_on / t_off - 1.0, 4),
    }, last[False], last[True]
