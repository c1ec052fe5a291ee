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
  row-block tasks (interpolating toward NWChem-style coarse tasks).
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


def stealing_ablation(
    basis: BasisSet,
    screen: ScreeningMap,
    cores: int = 1944,
) -> list[AblationRow]:
    """Scheduler on/off, then steal fractions 1/4, 1/2 and 1."""
    costs = quartet_cost_matrix(screen)
    rows = [
        AblationRow(
            "no-stealing",
            _sim_metrics(
                simulate_gtfock(
                    basis, screen, cores, costs=costs, enable_stealing=False,
                )
            ),
        )
    ]
    for frac in (0.25, 0.5, 1.0):
        nproc = max(1, cores // LONESTAR.cores_per_node)
        part = StaticPartition.build(basis.nshells, nproc)
        ns = basis.nshells
        t_task = LONESTAR.t_int_gtfock / LONESTAR.cores_per_node
        eris = costs.eris.ravel()
        queues = []
        for p in range(nproc):
            blk = part.task_block(p)
            codes = (
                np.arange(blk.row_lo, blk.row_hi)[:, None] * ns
                + np.arange(blk.col_lo, blk.col_hi)[None, :]
            ).ravel()
            queues.append(codes)
        out = run_work_stealing(
            queues,
            lambda codes: eris[codes] * t_task + LONESTAR.task_overhead,
            (part.prow, part.pcol),
            steal_fraction=frac,
        )
        rows.append(
            AblationRow(
                f"steal-{frac:g}",
                {
                    "makespan": out.makespan,
                    "load_balance": out.load_balance_ratio(),
                    "victims_per_proc": out.avg_steals_per_proc,
                },
            )
        )
    return rows


def granularity_ablation(
    basis: BasisSet,
    screen: ScreeningMap,
    cores: int = 1944,
    row_groups: tuple[int, ...] = (1, 4, 16),
) -> list[AblationRow]:
    """Coarsen tasks by grouping ``g`` consecutive task-grid rows.

    ``g = 1`` is the paper's shell-pair granularity; larger g emulates
    coarse tasks (fewer, bigger) and shows the load-balance cost the
    paper attributes to NWChem's 5-atom-quartet choice.
    """
    costs = quartet_cost_matrix(screen)
    nproc = max(1, cores // LONESTAR.cores_per_node)
    part = StaticPartition.build(basis.nshells, nproc)
    t_task = LONESTAR.t_int_gtfock / LONESTAR.cores_per_node
    eris = costs.eris
    rows = []
    for g in row_groups:
        queues = []
        for p in range(nproc):
            blk = part.task_block(p)
            tasks = []
            for r0 in range(blk.row_lo, blk.row_hi, g):
                r1 = min(r0 + g, blk.row_hi)
                for c0 in range(blk.col_lo, blk.col_hi, g):
                    c1 = min(c0 + g, blk.col_hi)
                    tasks.append(float(eris[r0:r1, c0:c1].sum()) * t_task)
            queues.append(tasks)
        out = run_work_stealing(queues, lambda c: c, (part.prow, part.pcol))
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


def _sim_metrics(sim) -> dict:
    return {
        "makespan": sim.t_fock_max,
        "load_balance": sim.load_balance,
        "victims_per_proc": sim.steals_avg,
    }
