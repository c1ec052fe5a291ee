"""Table III: Fock construction time, GTFock vs NWChem, over core counts.

The ``fock_table3`` family of the BENCH runner (``python -m benchmarks
fock_table3 [--quick]``): one datapoint is the wall time of the sweep
plus, per molecule, the simulated max-core Fock times and the
GTFock/NWChem ratio.
"""

from __future__ import annotations

import time

from repro.bench.experiments import table3_times


def measure(quick: bool = False) -> tuple[dict, str]:
    """One measurement: the Table III sweep, timed, summarized."""
    t0 = time.perf_counter()
    report = table3_times()
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
    check_report(report)
    return entry, report.text


def check_report(report) -> None:
    """The Table III shape targets (unchanged from the seed benchmark)."""
    for mol, algs in report.data.items():
        cores = sorted(algs["gtfock"])
        # shape target: NWChem faster at the smallest core count ...
        assert algs["nwchem"][cores[0]] < algs["gtfock"][cores[0]]
        # ... and GTFock competitive-or-better at the largest
        ratio = algs["gtfock"][cores[-1]] / algs["nwchem"][cores[-1]]
        assert ratio < 1.4, f"{mol}: GTFock/NWChem at max cores = {ratio:.2f}"
        # both scale: max-core time well below min-core time
        for alg in ("gtfock", "nwchem"):
            assert algs[alg][cores[-1]] < algs[alg][cores[0]] / 50
