"""Profiler overhead: water/6-31G Fock builds with phase probes on vs off.

The phase probes sit on the hottest path in the repo -- one context-
manager entry per kernel chunk (``eri_quartets``) and one per block-shape
flush (``jk_contraction``) -- so this benchmark is the acceptance gate
for the observability work: profiling a healthy Fock build must cost
<= 5% wall time.

Methodology: whole-SCF A/B timing cannot resolve a 5% gate on shared
runners (run-to-run noise alone is ~6%), so the benchmark times single
warm-cache :func:`build_jk` calls with the profiler off and on,
*interleaved* round by round so both configurations see the same
machine drift, and takes the min of each (scheduler noise is one-sided).
The ``phase_profiler`` family of the BENCH runner (``python -m
benchmarks phase_profiler [--quick]``), so ``repro perf check`` watches
the probe cost over time; ``--quick`` uses fewer rounds.
"""

from __future__ import annotations

import numpy as np

from benchmarks.overhead import on_off_walls

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water
from repro.fock.reorder import reorder_basis
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.obs import PhaseProfiler, session
from repro.obs.profile import PHASE_ERI
from repro.scf.fock import build_jk
from repro.scf.guess import core_guess
from repro.scf.orthogonalization import orthogonalizer

ROUNDS = 10


def measure(quick: bool = False) -> tuple[dict, str]:
    """Interleaved min-of-N wall times for probes off/on on one engine."""
    mol = water()
    basis = reorder_basis(BasisSet.build(mol, "6-31g"))
    engine = MDEngine(basis)
    hcore = core_hamiltonian(basis)
    x = orthogonalizer(overlap(basis))
    density = core_guess(hcore, x, mol.nelectrons // 2)
    build_jk(engine, density)  # warm the quartet/Schwarz caches

    def build(probed: bool):
        profiler = PhaseProfiler() if probed else None
        with session(profiler=profiler):
            return build_jk(engine, density), profiler

    walls, (jk_off, _), (jk_on, profiler) = on_off_walls(
        build, 3 if quick else ROUNDS
    )
    quartets = next(
        (p.calls for p in profiler.phases() if p.name == PHASE_ERI), 0
    )
    fock_matches = bool(
        np.array_equal(jk_off[0], jk_on[0])
        and np.array_equal(jk_off[1], jk_on[1])
    )
    entry = {
        "benchmark": "phase_profiler",
        "molecule": "water",
        "basis": "6-31g",
        **walls,
        "quartets_profiled": int(quartets),
        "fock_matches": fock_matches,
    }
    # probes are observation, not perturbation
    assert fock_matches, "profiler changed the Fock matrices"
    assert quartets > 0, "probes never fired"
    return entry, (
        "phase_profiler: water/6-31g warm build_jk overhead "
        f"{entry['overhead']:+.1%} (off {entry['wall_off_s']}s, "
        f"on {entry['wall_on_s']}s, "
        f"{entry['quartets_profiled']} quartets profiled)"
    )
