"""Integrity-layer overhead: RHF water/6-31G, detectors on vs off.

The integrity layer buys its detection coverage with per-iteration ABFT
checks (symmetry residuals on F and D, the Tr(D*S) electron-count
check) plus one CRC per segment of the stored supermatrix as it is
mapped -- all of which ride the SCF hot path.  On a healthy run over a
warm store that cost must stay within the 5% bound of its ``fock_sdc``
family row, and the detectors must raise zero false alarms.  The
``fock_sdc`` family of the BENCH runner (``python -m benchmarks
fock_sdc [--quick]``); ``--quick`` runs one round.
"""

from __future__ import annotations

import tempfile

from benchmarks.overhead import on_off_walls
from repro.chem.builders import water
from repro.scf.hf import RHF

ROUNDS = 4


def measure(quick: bool = False) -> tuple[dict, str]:
    """Best-of-N wall times for integrity off/on over one warm store.

    The store is filled once (untimed) so both configurations measure
    the stored-integral steady state -- the configuration the CRC
    framing actually taxes.  ``passed`` is the detectors' verdict (same
    energy, no false alarm); the overhead has its own family row.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-sdc-") as work:

        def scf(integrity: bool):
            return RHF(
                water(), basis_name="6-31g", integral_store=work + "/store",
                integrity=integrity,
            ).run()

        scf(False)  # fill + finalize, untimed
        walls, res_off, res_on = on_off_walls(scf, 1 if quick else ROUNDS)
    summary = res_on.integrity_summary
    entry = {
        "benchmark": "fock_sdc",
        "molecule": "water",
        "basis": "6-31g",
        **walls,
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
        "fock_sdc: water/6-31g integrity overhead "
        f"{entry['overhead']:+.1%} (off {entry['wall_off_s']}s, "
        f"on {entry['wall_on_s']}s, {entry['checks']} checks, "
        f"{entry['false_positives']} false positives)"
    )
