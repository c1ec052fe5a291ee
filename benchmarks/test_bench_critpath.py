"""Critical-path analyzer benchmark: decomposition + what-if fidelity.

Runs the analyzer end to end on a simulated GTFock build (water/STO-3G,
48 cores): exact per-rank time decomposition, critical-path extraction,
and the network-2x / steal-off what-if projections cross-checked against
re-simulation.  The build runs untraced: the analyzer reads the
scheduler's own record.  The ``fock_critpath`` family of the BENCH runner
(``python -m benchmarks fock_critpath [--quick]``): wall time, explained
ratio, idle fraction, worst what-if error.
"""

from __future__ import annotations

import time

from repro.chem import builders
from repro.chem.basis.basisset import BasisSet
from repro.fock.reorder import reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.fock.simulate import SimCapture, simulate_gtfock
from repro.integrals import schwarz_model
from repro.obs.critpath import analyze


CORES = 48


def measure(quick: bool = False) -> tuple[dict, str]:
    """One measurement: simulate, analyze, cross-check what-ifs."""
    t0 = time.perf_counter()
    mol = builders.water()
    basis = reorder_basis(BasisSet.build(mol, "sto-3g"))
    screen = ScreeningMap(basis, schwarz_model(basis), 1e-10)
    capture = SimCapture()
    simulate_gtfock(
        basis, screen, CORES, capture=capture, molecule_name=mol.name
    )
    analysis = analyze(capture, resim=True, network_scale=2.0)
    wall = time.perf_counter() - t0
    summary = analysis.summary()
    entry = {
        "benchmark": "fock_critpath",
        "wall_s": round(wall, 3),
        "explained_ratio": round(summary["explained_ratio"], 6),
        "idle_fraction": round(summary["idle_fraction"], 6),
        "whatif_max_rel_err": round(summary["whatif_max_rel_err"], 6),
        "decomposition_ok": summary["decomposition_ok"],
    }
    analysis.check()  # exact decomposition + no FAIL-graded what-if
    cross_checked = [w for w in analysis.whatifs if w.resim_makespan is not None]
    assert len(cross_checked) >= 2, "need >= 2 re-simulated what-ifs"
    return entry, analysis.text()
