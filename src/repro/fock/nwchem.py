"""NWChem's Fock-build algorithm, numeric mode (Sec II-F, Algorithm 2).

The baseline the paper compares against:

* F and D distributed in **block-row** fashion by atoms over all
  processes;
* tasks of **5 atom quartets** dispensed by a **centralized** dynamic
  scheduler (one shared atomic counter, one ``GetTask`` per task);
* per task: fetch the 6 atom blocks of D it needs, compute its unique
  screened shell quartets -- the class-plan rows it owns
  (:func:`~repro.fock.tasks.nwchem_task_rows`), contracted in one pass of
  the production kernel -- and accumulate the atom blocks of F.

No prefetching is possible because task placement is unknown a priori
(the paper's second criticism), so every task pays its own communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.centralized import CentralizedOutcome, run_centralized
from repro.fock.screening_map import ScreeningMap
from repro.fock.tasks import nwchem_task_list, nwchem_task_rows, task_plan
from repro.integrals.class_batch import (
    EIGHT_PERMUTATIONS,
    density_stack,
    jk_from_rows,
)
from repro.integrals.engine import ERIEngine
from repro.obs.flight import CH_FOCK_ACC, CH_TASK_GET
from repro.runtime.ga import GlobalArray, block_bounds
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats

#: the F blocks a quartet updates, (a, b) and (a, c) of each of its eight
#: images (a, b, c, d), as columns of the quartet in per-image scatter order
_TOUCHED = tuple(i for p in EIGHT_PERMUTATIONS for i in (p[0], p[1], p[0], p[2]))


@dataclass
class NWChemBuildResult:
    fock: np.ndarray
    stats: CommStats
    outcome: CentralizedOutcome
    screen: ScreeningMap
    ntasks: int


def atom_function_ranges(basis) -> list[tuple[int, int]]:
    """Function-index range [lo, hi) per atom (atom-ordered bases only)."""
    atom_of = basis.atom_of_shell
    if np.any(np.diff(atom_of) < 0):
        raise ValueError(
            "NWChem's block-row-by-atom distribution requires the "
            "atom-ordered (unpermuted) basis"
        )
    first = np.searchsorted(atom_of, np.arange(basis.molecule.natoms + 1))
    if (np.diff(first) == 0).any():
        raise ValueError(f"atom {np.diff(first).argmin()} has no shells")
    offs = basis.offsets[first].tolist()
    return list(zip(offs[:-1], offs[1:]))


def nwchem_build(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    nproc: int,
    tau: float = 1e-11,
    config: MachineConfig = LONESTAR,
    screen: ScreeningMap | None = None,
    chunk: int = 5,
) -> NWChemBuildResult:
    """Numeric NWChem-style Fock construction on ``nproc`` processes."""
    basis = engine.basis
    nbf = basis.nbf
    if hcore.shape != (nbf, nbf) or density.shape != (nbf, nbf):
        raise ValueError("hcore/density shape does not match the basis")
    density_stack(density, nbf)
    if screen is None:
        screen = ScreeningMap(basis, engine.schwarz(), tau)
    if nproc > nbf:
        raise ValueError(f"cannot block-row distribute {nbf} rows over {nproc} procs")

    stats = CommStats(nproc, config)
    # block-row distribution: rows cut evenly, columns undivided
    rb = block_bounds(nbf, nproc)
    cb = np.array([0, nbf])
    ga_d = GlobalArray(stats, nbf, nbf, rb, cb)
    ga_d.load(density)
    ga_g = GlobalArray(stats, nbf, nbf, rb, cb)

    tasks = nwchem_task_list(screen, chunk=chunk)
    aranges = atom_function_ranges(basis)
    plan = task_plan(engine, screen)
    owners = nwchem_task_rows(plan, screen, tasks, chunk)
    atom_of, sizes = basis.atom_of_shell, basis.shell_sizes().astype(float)
    t_eri = config.t_int_nwchem  # one process per core

    def cost_of(t: int) -> float:
        n_eri = sizes[owners.images[owners.of(t)]].prod(axis=1).sum()
        return float(n_eri) * t_eri + config.task_overhead

    def comm_of(proc: int, t: int) -> None:
        # fetch the D atom blocks this task's quartets touch (6 pairs per
        # atom quartet: IJ, KL, IK, JL, IL, JK); Algorithm 2 line 14.
        task = tasks[t]
        for l_at in task.l_range():
            i, jj, k = task.i_at, task.j_at, task.k_at
            for (a, b) in ((i, jj), (k, l_at), (i, k), (jj, l_at), (i, l_at), (jj, k)):
                (r0, r1), (c0, c1) = aranges[a], aranges[b]
                ga_d.get(proc, r0, r1, c0, c1, channel=CH_TASK_GET)

    def on_task(proc: int, t: int) -> None:
        own = owners.of(t)
        if own.start == own.stop:
            return
        j, k = jk_from_rows(engine, density, plan, np.sort(owners.rows[own]))
        g = 2.0 * j - k
        # accumulate the updated F blocks back (Algorithm 2 line 16), one
        # per touched atom pair like NWChem's 6 updates, visited in the
        # order a per-quartet scatter first touches them: the clock sums
        # follow the order of the accumulates
        pairs = owners.images[own][:, _TOUCHED].reshape(-1, 2)
        _, first = np.unique(
            pairs[:, 0] * basis.nshells + pairs[:, 1], return_index=True
        )
        touched = set(map(tuple, pairs[np.sort(first)].tolist()))
        for a_at, b_at in {(int(atom_of[a]), int(atom_of[b])) for a, b in touched}:
            (r0, r1), (c0, c1) = aranges[a_at], aranges[b_at]
            ga_g.acc(proc, r0, c0, g[r0:r1, c0:c1], channel=CH_FOCK_ACC)

    outcome = run_centralized(
        range(len(tasks)), nproc, stats, cost_of, comm_of=comm_of,
        on_task=on_task,
    )
    fock = hcore + ga_g.to_numpy()
    return NWChemBuildResult(
        fock=fock, stats=stats, outcome=outcome, screen=screen, ntasks=len(tasks)
    )
