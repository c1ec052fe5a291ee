"""The paper's core contribution: scalable parallel Fock matrix construction.

Public surface:

* the numeric distributed build -- :func:`gtfock_build` (the paper's
  Algorithm 4), producing Fock matrices equal to the sequential
  reference (the numeric Algorithm 2 baseline is the test oracle
  ``tests/reference_nwchem.py``);
* timing-level simulation -- :func:`simulate_gtfock` /
  :func:`simulate_nwchem` (Algorithm 2 on per-task arrays) for
  paper-scale molecules and core counts;
* the building blocks: screening maps, parity symmetry checks, spatial
  shell reordering, static 2-D partitioning, prefetch footprints, task
  cost matrices, and the two schedulers.
"""

from repro.fock.ablation import (
    AblationRow,
    granularity_ablation,
    reordering_ablation,
    stealing_ablation,
)
from repro.fock.centralized import CentralizedOutcome, run_centralized
from repro.fock.chaos import run_chaos
from repro.fock.cost import TaskCosts, parity_allowed, quartet_cost_matrix
from repro.fock.gtfock import GTFockBuildResult, PrefetchMiss, gtfock_build
from repro.fock.partition import StaticPartition, TaskBlock
from repro.fock.prefetch import (
    Footprint,
    block_footprint,
    footprint_bounding_boxes,
    rank_footprints,
)
from repro.fock.reorder import bandwidth_of, cell_reordering, reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.fock.simulate import FockSimResult, simulate_gtfock, simulate_nwchem
from repro.fock.stealing import (
    RecoveryRecord,
    StealingOutcome,
    run_work_stealing,
)
from repro.fock.symmetry import symmetry_check, task_computes
from repro.fock.tasks import gtfock_task_rows

__all__ = [
    "AblationRow",
    "granularity_ablation",
    "reordering_ablation",
    "stealing_ablation",
    "CentralizedOutcome",
    "run_centralized",
    "run_chaos",
    "TaskCosts",
    "parity_allowed",
    "quartet_cost_matrix",
    "GTFockBuildResult",
    "PrefetchMiss",
    "gtfock_build",
    "StaticPartition",
    "TaskBlock",
    "Footprint",
    "block_footprint",
    "footprint_bounding_boxes",
    "rank_footprints",
    "bandwidth_of",
    "cell_reordering",
    "reorder_basis",
    "ScreeningMap",
    "FockSimResult",
    "simulate_gtfock",
    "simulate_nwchem",
    "RecoveryRecord",
    "StealingOutcome",
    "run_work_stealing",
    "symmetry_check",
    "task_computes",
    "gtfock_task_rows",
]
