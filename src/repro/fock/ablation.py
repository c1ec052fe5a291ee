"""Ablation studies over the paper's design choices.

The paper motivates three mechanisms -- the initial static partition,
the spatial shell reordering, and the work-stealing scheduler -- and its
conclusion names "improved reordering schemes" and "smarter scheduling"
as future work.  This module isolates each choice so its contribution can
be measured independently, on the Lonestar machine (Table I):

* :func:`reordering_ablation` -- none / natural-cell / Hilbert-cell
  ordering vs. communication footprint and simulated time;
* :func:`stealing_ablation` -- scheduler on/off and steal-fraction sweep
  vs. load balance and makespan;
* :func:`granularity_ablation` -- shell-pair tasks vs. coarser
  tiles of them (interpolating toward NWChem-style coarse tasks).

The scheduler rows of the last two price one model of the tasks
(:func:`_task_queues`), so they differ only in what they vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.fock.cost import quartet_cost_matrix
from repro.fock.partition import StaticPartition
from repro.fock.prefetch import block_footprint
from repro.fock.reorder import bandwidth_of, reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.fock.simulate import simulate_gtfock
from repro.fock.stealing import run_work_stealing
from repro.integrals.schwarz import schwarz_model
from repro.runtime.machine import LONESTAR


@dataclass
class AblationRow:
    label: str
    metrics: dict

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        vals = ", ".join(f"{k}={v:.4g}" for k, v in self.metrics.items())
        return f"{self.label}: {vals}"


def reordering_ablation(basis: BasisSet, cores: int = 768) -> list[AblationRow]:
    """Compare shell orderings by footprint, bandwidth, and simulated time
    (tau = 1e-10, 5-bohr cells).

    ``basis`` should be in an arbitrary (e.g. scrambled) order so the
    orderings have something to fix.
    """
    rows = []
    variants = {
        "none": basis,
        "natural": reorder_basis(basis, 5.0, "natural"),
        "hilbert": reorder_basis(basis, 5.0, "hilbert"),
    }
    for label, b in variants.items():
        screen = ScreeningMap(b, schwarz_model(b), 1e-10)
        costs = quartet_cost_matrix(screen)
        nproc = max(1, cores // LONESTAR.cores_per_node)
        part = StaticPartition.build(b.nshells, nproc)
        avg_fp = float(
            np.mean(
                [
                    block_footprint(screen, part.task_block(p)).elements
                    for p in range(nproc)
                ]
            )
        )
        sim = simulate_gtfock(b, screen, cores, costs=costs)
        rows.append(
            AblationRow(
                label,
                {
                    "bandwidth": bandwidth_of(screen.significant),
                    "avg_footprint_elements": avg_fp,
                    "comm_mb_per_proc": sim.comm_mb_per_proc,
                    "t_fock": sim.t_fock_max,
                },
            )
        )
    return rows


def _task_queues(
    basis: BasisSet, screen: ScreeningMap, cores: int, group: int
) -> tuple[list[np.ndarray], tuple[int, int]]:
    """Per-rank task costs over the static partition, and its grid: what
    every scheduler row prices.

    A task is a ``group x group`` tile of a rank's shell-pair block (1:
    the paper's granularity) and costs its ERIs x ``t_int`` per core plus
    one ``task_overhead``, as in :func:`simulate_gtfock`.
    """
    eris = quartet_cost_matrix(screen).eris
    nproc = max(1, cores // LONESTAR.cores_per_node)
    part = StaticPartition.build(basis.nshells, nproc)
    t_task = LONESTAR.t_int_gtfock / LONESTAR.cores_per_node
    queues = []
    for p in range(nproc):
        blk = part.task_block(p)
        tiles = eris[blk.row_lo:blk.row_hi, blk.col_lo:blk.col_hi]
        for axis, n in enumerate(tiles.shape):
            tiles = np.add.reduceat(tiles, np.arange(0, n, group), axis=axis)
        queues.append(tiles.ravel() * t_task + LONESTAR.task_overhead)
    return queues, (part.prow, part.pcol)


def _costs(tasks: np.ndarray) -> np.ndarray:
    """A queue of :func:`_task_queues` holds the task costs themselves."""
    return tasks


def stealing_ablation(
    basis: BasisSet,
    screen: ScreeningMap,
    cores: int = 1944,
) -> list[AblationRow]:
    """Scheduler off, then steal fractions 1/4, 1/2 and 1."""
    queues, grid = _task_queues(basis, screen, cores, 1)
    runs = {"no-stealing": run_work_stealing(
        queues, _costs, grid, enable_stealing=False)}
    for frac in (0.25, 0.5, 1.0):
        runs[f"steal-{frac:g}"] = run_work_stealing(
            queues, _costs, grid, steal_fraction=frac)
    return [
        AblationRow(label, {
            "makespan": out.makespan,
            "load_balance": out.load_balance_ratio(),
            "victims_per_proc": out.avg_steals_per_proc,
        })
        for label, out in runs.items()
    ]


#: task tiles of the granularity ablation: 1 x 1 is the paper's
GROUPS = (1, 4, 16)


def granularity_ablation(
    basis: BasisSet,
    screen: ScreeningMap,
    cores: int = 1944,
) -> list[AblationRow]:
    """Coarsen tasks into ``g x g`` tiles of the task grid, g in :data:`GROUPS`.

    ``g = 1`` is the paper's shell-pair granularity; larger g emulates
    coarse tasks (fewer, bigger, and paying fewer per-task overheads) and
    shows the load-balance cost the paper attributes to NWChem's
    5-atom-quartet choice.
    """
    rows = []
    for g in GROUPS:
        queues, grid = _task_queues(basis, screen, cores, g)
        out = run_work_stealing(queues, _costs, grid)
        rows.append(
            AblationRow(
                f"group-{g}x{g}",
                {
                    "ntasks": sum(len(q) for q in queues),
                    "makespan": out.makespan,
                    "load_balance": out.load_balance_ratio(),
                },
            )
        )
    return rows
