"""Guard overhead: RHF water/6-31G with the convergence guard on vs off.

On a healthy run the guard is pure bookkeeping -- classification over a
short history plus NaN/Inf sentinels on F and D -- so its wall-time
overhead must stay within the 5% bound of its ``scf_guard`` family row.
The ``scf_guard`` family of the BENCH runner (``python -m benchmarks
scf_guard [--quick]``): best wall time of both configurations plus the
overhead ratio; ``--quick`` runs one round.
"""

from __future__ import annotations

from benchmarks.overhead import on_off_walls
from repro.chem.builders import water
from repro.scf.hf import RHF

ROUNDS = 4


def measure(quick: bool = False) -> tuple[dict, str]:
    """Best-of-N wall times for guard off/on plus the overhead ratio."""
    walls, res_off, res_on = on_off_walls(
        lambda guard: RHF(water(), basis_name="6-31g", guard=guard).run(),
        rounds=1 if quick else ROUNDS,
    )
    entry = {
        "benchmark": "scf_guard",
        "molecule": "water",
        "basis": "6-31g",
        **walls,
        "iterations": res_on.iterations,
        "energy": round(res_on.energy, 10),
        "guard_events": len(res_on.guard_events),
        "energy_matches": bool(res_on.energy == res_off.energy),
    }
    assert entry["guard_events"] == 0, "guard intervened on a healthy run"
    return entry, (
        "scf_guard: water/6-31g overhead "
        f"{entry['overhead']:+.1%} (off {entry['wall_off_s']}s, "
        f"on {entry['wall_on_s']}s, {entry['iterations']} iters, "
        f"{entry['guard_events']} guard events)"
    )
