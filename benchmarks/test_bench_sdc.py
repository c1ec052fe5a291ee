"""Integrity-layer overhead: its phase share of one RHF water/6-31G run.

The integrity layer buys its detection coverage with per-iteration ABFT
checks (symmetry residuals on F and D, the Tr(D*S) electron-count
check) plus one CRC per segment of the stored supermatrix as it is
mapped, each call in an ``integrity`` phase (the CRC share is gross of
the well-formedness check it replaces).  On a healthy run over a warm
store their summed wall over the run's wall must stay within the 5%
bound of the ``fock_sdc`` family row, and the detectors must raise zero
false alarms.  ``python -m benchmarks fock_sdc [--quick]``: one run is
the measurement, so ``--quick`` measures the same.
"""

from __future__ import annotations

import tempfile
import time

from repro.chem.builders import water
from repro.obs import MetricsRegistry, PhaseProfiler, session
from repro.obs.profile import PHASE_INTEGRITY
from repro.scf.hf import RHF


def measure(quick: bool = False) -> tuple[dict, str]:
    """The integrity phases' share of one run over a warm store.

    The store is filled once (untimed), so the profiled run measures the
    stored-integral steady state the CRC framing taxes.  A last run,
    integrity off and untimed, gives ``energy_matches``; ``passed`` is
    the detectors' verdict (same energy, no false alarm).
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-sdc-") as work:

        def scf(integrity: bool):
            return RHF(
                water(), basis_name="6-31g", integral_store=work + "/store",
                integrity=integrity,
            ).run()

        scf(False)  # fill + finalize, untimed
        profiler = PhaseProfiler()
        with session(profiler=profiler, metrics=MetricsRegistry()):
            t0 = time.perf_counter()
            res_on = scf(True)
            wall = time.perf_counter() - t0
        res_off = scf(False)
    integrity_s = profiler.wall(PHASE_INTEGRITY)
    summary = res_on.integrity_summary
    entry = {
        "benchmark": "fock_sdc",
        "molecule": "water",
        "basis": "6-31g",
        "wall_s": round(wall, 4),
        "integrity_s": round(integrity_s, 6),
        "overhead": round(integrity_s / wall, 4),
        "iterations": res_on.iterations,
        "energy": round(res_on.energy, 10),
        "checks": summary["checks_total"],
        "false_positives": summary["detections_total"],
        "energy_matches": bool(res_on.energy == res_off.energy),
    }
    entry["passed"] = bool(
        entry["energy_matches"] and entry["false_positives"] == 0
    )
    return entry, (
        f"fock_sdc: water/6-31g integrity share {entry['overhead']:.2%} "
        f"({integrity_s:.4f}s of {wall:.3f}s, {entry['checks']} checks, "
        f"{entry['false_positives']} false positives)"
    )
