"""Profiler overhead: a whole (H2O)5/STO-3G RHF with phase probes on vs off.

Every named region of the pipeline is one ``repro.obs.phase`` probe;
with a profiler installed each probe times its region and folds it into
a ``PhaseStat``.  This benchmark is the acceptance gate for that cost:
profiling a healthy SCF must cost <= 5% wall time.

The workload is the system of perfbench's ``scf_direct`` (canonical
geometry): a direct class-batched SCF of ~1 s whose every phase fires
-- pair data, Schwarz, the class plan, one ``eri_quartets`` probe per
kernel chunk and one ``jk_contraction`` probe per flush in each Fock
build, DIIS and the density step.  A single warm ``build_jk`` (28 ms,
the previous workload) put the gate inside the scheduler noise of a
shared runner; a whole run measures what a user pays.  The entry also
records the quartets that run computes (``quartets_computed``, exact:
the density-change screen of the incremental build shows there).  The
store budget is patched to 0 (``hf.STORE_BUDGET``), so the run stays
direct: on its default private store one build would compute, and the
other builds probe no kernel chunk.

Methodology: the two configurations run interleaved round by round,
alternating which goes first, so both see the same machine drift, and
the min of each is taken (scheduler noise is one-sided).  Each run
builds its own RHF, so Schwarz, pair data and the plan are timed too.
The profiler's own cost cannot be one of its phases, so unlike the
guard and integrity budgets (a phase share of one run) it is a
difference of two walls.  The ``phase_profiler`` family of the BENCH
runner (``python -m benchmarks phase_profiler [--quick]``), so ``repro
perf check`` watches the probe cost over time; ``--quick`` uses fewer
rounds.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from repro.chem.builders import water_cluster
from repro.obs import MetricsRegistry, PhaseProfiler, session
from repro.obs.profile import PHASE_ERI
from repro.scf import hf
from repro.scf.hf import RHF

ROUNDS = 10


def measure(quick: bool = False) -> tuple[dict, str]:
    """Interleaved min-of-N SCF wall times with probes off and on."""
    mol = water_cluster(5, 1, 1)
    rounds = 3 if quick else ROUNDS
    walls: dict[bool, list[float]] = {False: [], True: []}
    last, computed = {}, set()
    for i in range(rounds):
        for probed in (False, True) if i % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            profiler = PhaseProfiler() if probed else None
            with session(profiler=profiler, metrics=MetricsRegistry()), \
                    mock.patch.object(hf, "STORE_BUDGET", 0):
                rhf = RHF(mol, basis_name="sto-3g")
                last[probed] = rhf.run(), profiler
            computed.add(rhf.engine.quartets_computed)
            walls[probed].append(time.perf_counter() - t0)
    (off, _), (on, profiler) = last[False], last[True]
    t_off, t_on = min(walls[False]), min(walls[True])
    assert PHASE_ERI in profiler.stats, "probes never fired"
    fock_matches = bool(
        np.array_equal(off.fock, on.fock) and off.energy == on.energy
    )
    entry = {
        "benchmark": "phase_profiler",
        "molecule": "(H2O)5",
        "basis": "sto-3g",
        "rounds": rounds,
        "wall_off_s": round(t_off, 4),
        "wall_on_s": round(t_on, 4),
        "overhead": round(t_on / t_off - 1.0, 4),
        "quartets_profiled": profiler.stats[PHASE_ERI].calls,
        "quartets_computed": int(computed.pop()),
        "fock_matches": fock_matches,
    }
    # probes are observation, not perturbation
    assert fock_matches, "profiler changed the SCF result"
    assert not computed, "runs computed different quartet counts"
    return entry, (
        "phase_profiler: (H2O)5/sto-3g RHF overhead "
        f"{entry['overhead']:+.1%} (off {entry['wall_off_s']}s, "
        f"on {entry['wall_on_s']}s, "
        f"{entry['quartets_profiled']} eri_quartets probes)"
    )
