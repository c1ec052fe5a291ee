"""Integrity-layer overhead: its phase share of an RHF water/6-31G run.

The integrity layer buys its detection coverage with per-iteration ABFT
checks (symmetry residuals on F and D, the Tr(D*S) electron-count
check) plus one CRC per segment of the stored supermatrix as it is
mapped, each call in an ``integrity`` phase (the CRC share is gross of
the well-formedness check it replaces).  On a healthy run over a warm
store their summed wall over the run's wall must stay within the 5%
bound of the ``fock_sdc`` family row, and the detectors must raise zero
false alarms.  The bound is ~0.6 ms of a ~12 ms run, so one run's jitter
would decide it: the graded share is the median of :data:`RUNS` warm
runs, their min and max recorded beside it.  ``python -m benchmarks
fock_sdc [--quick]``: ``--quick`` measures the same.
"""

from __future__ import annotations

import tempfile
import time

from repro.chem.builders import water
from repro.obs import MetricsRegistry, PhaseProfiler, session
from repro.obs.profile import PHASE_INTEGRITY
from repro.scf.hf import RHF

#: profiled warm runs per measurement; the median one is graded
RUNS = 5


def measure(quick: bool = False) -> tuple[dict, str]:
    """The integrity phases' median share of :data:`RUNS` runs over a
    warm store.

    The store is filled once (untimed), so each profiled run measures
    the stored-integral steady state the CRC framing taxes.  A last run,
    integrity off and untimed, gives ``energy_matches`` (every profiled
    run's energy equals it); ``passed`` is the detectors' verdict (same
    energy, no false alarm in any run).
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-sdc-") as work:

        def scf(integrity: bool):
            return RHF(
                water(), basis_name="6-31g", integral_store=work + "/store",
                integrity=integrity,
            ).run()

        scf(False)  # fill + finalize, untimed
        runs = []  # (share, wall, integrity_s, result), one per run
        for _ in range(RUNS):
            profiler = PhaseProfiler()
            with session(profiler=profiler, metrics=MetricsRegistry()):
                t0 = time.perf_counter()
                res = scf(True)
                wall = time.perf_counter() - t0
            integrity_s = profiler.wall(PHASE_INTEGRITY)
            runs.append((integrity_s / wall, wall, integrity_s, res))
        res_off = scf(False)
    runs.sort(key=lambda r: r[0])
    share, wall, integrity_s, res_on = runs[len(runs) // 2]
    summary = res_on.integrity_summary
    entry = {
        "benchmark": "fock_sdc",
        "molecule": "water",
        "basis": "6-31g",
        "runs": RUNS,
        "wall_s": round(wall, 4),
        "integrity_s": round(integrity_s, 6),
        "overhead": round(share, 4),
        "overhead_min": round(runs[0][0], 4),
        "overhead_max": round(runs[-1][0], 4),
        "iterations": res_on.iterations,
        "energy": round(res_on.energy, 10),
        "checks": summary["checks_total"],
        "false_positives": sum(
            r[3].integrity_summary["detections_total"] for r in runs
        ),
        "energy_matches": all(r[3].energy == res_off.energy for r in runs),
    }
    entry["passed"] = bool(
        entry["energy_matches"] and entry["false_positives"] == 0
    )
    return entry, (
        f"fock_sdc: water/6-31g integrity share {entry['overhead']:.2%} "
        f"(median of {RUNS}, {entry['overhead_min']:.2%}-"
        f"{entry['overhead_max']:.2%}; {integrity_s:.4f}s of {wall:.3f}s, "
        f"{entry['checks']} checks, {entry['false_positives']} false positives)"
    )
