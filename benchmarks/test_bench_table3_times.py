"""Table III: Fock construction time, GTFock vs NWChem, over core counts.

The ``fock_table3`` family of the BENCH runner (``python -m benchmarks
fock_table3 [--quick]``): one datapoint is the wall time of the sweep
plus, per molecule, the simulated max-core Fock times and the
GTFock/NWChem ratio; Table III's claims of ``test_bench_paper.py`` gate
it.
"""

from __future__ import annotations

import time

from benchmarks.test_bench_paper import check

from repro.bench.experiments import ARTIFACTS


def measure(quick: bool = False) -> tuple[dict, str]:
    """One measurement: the Table III sweep, timed, summarized."""
    t0 = time.perf_counter()
    report = ARTIFACTS["table3"]()
    wall = time.perf_counter() - t0
    entry: dict = {
        "benchmark": "fock_table3",
        "wall_s": round(wall, 3),
        "molecules": {},
    }
    for mol, algs in report.data.items():
        cores = sorted(algs["gtfock"])
        hi = cores[-1]
        entry["molecules"][mol] = {
            "max_cores": hi,
            "t_gtfock_s": algs["gtfock"][hi],
            "t_nwchem_s": algs["nwchem"][hi],
            "ratio_gtfock_over_nwchem": round(
                algs["gtfock"][hi] / algs["nwchem"][hi], 4
            ),
        }
    check("table3", report.data)
    return entry, report.text
