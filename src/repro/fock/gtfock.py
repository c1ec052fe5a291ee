"""The paper's algorithm: distributed Fock build, numeric mode (Algorithm 4).

Runs the full GTFock pipeline on the simulated runtime with *real* data
movement, so the resulting Fock matrix can be compared against the
sequential reference:

1. static 2-D partition of shell-pair tasks over the process grid;
2. per-process prefetch of its three D fetch boxes into a local buffer;
3. task execution through the work-stealing scheduler: a task is the
   class-plan rows it owns (:func:`~repro.fock.tasks.gtfock_task_rows`);
   running it records them and checks each row's six D blocks against
   the local buffer (prefetch-sufficiency is *checked*, not assumed;
   thieves receive the victim's D buffer on steal);
4. each surviving process contracts its rows against its local D in one
   pass of the production kernel, then accumulates the result into the
   distributed F once: ``F = Hcore + 2J - K``.

The host build is a wall-clock span tree (setup / prefetch / schedule /
contract / flush, one ``task(m,n)`` span per executed task); the
simulated ranks get virtual-clock ``prefetch`` / ``flush`` spans plus
the scheduler's per-task/steal events -- one Perfetto row per rank.

The task queues, task costs and fetch boxes are the simulator's
(:func:`~repro.fock.simulate.task_queues`,
:func:`~repro.fock.prefetch.rank_fetch_boxes`): the two builds differ
only in the data this one moves and checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.cost import TaskCosts, quartet_cost_matrix
from repro.fock.partition import StaticPartition
from repro.fock.prefetch import (
    block_footprint,
    footprint_element_mask,
    rank_fetch_boxes,
)
from repro.fock.screening_map import ScreeningMap
from repro.fock.simulate import SimCapture, task_queues
from repro.fock.stealing import StealingOutcome, run_work_stealing
from repro.fock.tasks import gtfock_task_rows, task_plan
from repro.integrals.class_batch import density_stack, jk_from_rows
from repro.integrals.engine import ERIEngine
from repro.obs import get_tracer
from repro.obs.flight import CH_FOCK_ACC, CH_PREFETCH_GET, CH_STEAL_F, CH_TASK_GET
from repro.runtime.faults import FaultPlan, FaultState
from repro.runtime.ga import GlobalArray
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats

#: the six D blocks a task reads for its quartet ``(MP|NQ)`` -- (N,Q),
#: (P,Q), (M,Q), (P,N), (M,N), (M,P) -- as columns of the image, in the
#: order a per-image scatter first reads them (fetches happen in it)
_READS = (2, 3, 1, 3, 0, 3, 1, 2, 0, 2, 0, 1)


class PrefetchMiss(RuntimeError):
    """A task read a D element its process never prefetched (a real bug)."""


@dataclass
class GTFockBuildResult:
    fock: np.ndarray
    stats: CommStats
    outcome: StealingOutcome
    partition: StaticPartition
    screen: ScreeningMap
    costs: TaskCosts
    #: activated fault state when the build ran under fault injection
    faults: FaultState | None = None


class _ProcessBuffers:
    """Per-process local state: fetched D and its mask, rows run."""

    def __init__(self, basis, rank: int, ga_d: GlobalArray, on_demand: bool):
        nbf = basis.nbf
        self.d_local = np.zeros((nbf, nbf))
        self.have = np.zeros((nbf, nbf), dtype=bool)
        self.offsets, self.slices = basis.offsets, basis.shell_slices
        self.rank, self.ga_d = rank, ga_d
        #: fetch missing D blocks on demand -- only under fault injection,
        #: where adopting a dead rank's orphaned tasks legitimately needs D
        #: outside this rank's footprint
        self.on_demand = on_demand
        #: the plan rows of every task this process ran
        self.rows: list[np.ndarray] = []

    def fetch(self, rows: slice, cols: slice, channel: str) -> None:
        self.d_local[rows, cols] = self.ga_d.get(
            self.rank, rows.start, rows.stop, cols.start, cols.stop,
            channel=channel,
        )
        self.have[rows, cols] = True

    def check_reads(self, pairs: np.ndarray) -> None:
        """Check the D blocks of shell ``pairs`` ``(k, 2)``, in read order.

        The prefetch regions store each needed block in at least one
        orientation, like the real GTFock exploiting D's symmetry.  A
        miss in *both* orientations is a genuine coverage bug -- unless
        fetching on demand, in which case the block is fetched (and
        charged) instead.
        """
        # coverage comes in whole shell blocks: a block's first element
        # stands for it
        r, c = self.offsets[pairs[:, 0]], self.offsets[pairs[:, 1]]
        for a, b in pairs[~(self.have[r, c] | self.have[c, r])].tolist():
            rows, cols = self.slices[a], self.slices[b]
            if self.have[rows, cols].all() or self.have[cols, rows].all():
                continue  # fetched for an earlier read
            if not self.on_demand:
                raise PrefetchMiss(
                    f"D[{rows}, {cols}] was not prefetched by this process"
                )
            self.fetch(rows, cols, CH_TASK_GET)

    def local_density(self) -> np.ndarray:
        """The D this process holds, each block mirrored from the
        orientation it holds."""
        return np.where(self.have, self.d_local, self.d_local.T)

    def merge_from(self, other: "_ProcessBuffers") -> None:
        """Copy a steal victim's D coverage into this process."""
        new = other.have & ~self.have
        self.d_local[new] = other.d_local[new]
        self.have |= other.have


def gtfock_build(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    nproc: int,
    tau: float = 1e-11,
    screen: ScreeningMap | None = None,
    faults: FaultPlan | FaultState | None = None,
    capture: SimCapture | None = None,
) -> GTFockBuildResult:
    """Numeric GTFock Fock-matrix construction on ``nproc`` simulated processes.

    The ``engine.basis`` ordering is used as-is; apply
    :func:`repro.fock.reorder.reorder_basis` beforehand (and pass matching
    ``hcore``/``density``) to include the Sec III-D reordering.

    ``faults`` runs the build under fault injection (stragglers, lossy
    one-sided ops with retry, rank deaths).  The build is engineered to
    produce the *same* Fock matrix regardless: retried accumulates are
    tag-deduplicated, and a dead rank's tasks are re-executed by
    survivors (reading D on demand where their prefetch footprint falls
    short).  Deaths happen inside the scheduler, before any flush, and
    only survivors flush, so no rank dies mid-flush; each survivor's
    flush is staged in an epoch and committed whole.  Only the
    virtual-time accounting, retry channel, and recovery records differ.

    ``capture`` is an optional
    :class:`~repro.fock.simulate.SimCapture` that the build fills with
    the raw per-rank accounting for the critical-path analyzer
    (:func:`repro.obs.critpath.analyze`).  The build records into the
    session's tracer.
    """
    tracer = get_tracer()
    config = LONESTAR
    basis = engine.basis
    nbf = basis.nbf
    if hcore.shape != (nbf, nbf) or density.shape != (nbf, nbf):
        raise ValueError("hcore/density shape does not match the basis")
    density_stack(density, nbf)
    if isinstance(faults, FaultPlan):
        fstate: FaultState | None = faults.activate(nproc)
    else:
        fstate = faults
    if fstate is not None and fstate.nproc != nproc:
        raise ValueError(f"fault state is for {fstate.nproc} ranks, build has {nproc}")
    with tracer.span("gtfock_build", cat="fock", nproc=nproc, nbf=nbf) as top:
        with tracer.span("setup", cat="fock"):
            if screen is None:
                screen = ScreeningMap(basis, engine.schwarz(), tau)
            plan = task_plan(engine, screen)
            owners = gtfock_task_rows(plan, basis.nshells)
            part = StaticPartition.build(basis.nshells, nproc)
            rb, cb = part.matrix_bounds(basis)
            stats = CommStats(nproc, config, faults=fstate)
            ga_d = GlobalArray(stats, nbf, nbf, rb, cb)
            ga_d.load(density)
            ga_g = GlobalArray(stats, nbf, nbf, rb, cb)
            costs = quartet_cost_matrix(screen)
            offsets = basis.offsets.tolist()
            bufs = [
                _ProcessBuffers(basis, p, ga_d, on_demand=fstate is not None)
                for p in range(nproc)
            ]

        # -- prefetch phase (Algorithm 4, line 3) ----------------------------
        own_masks: list[np.ndarray] = []
        prefetch_time = np.zeros(nproc)
        with tracer.span("prefetch", cat="fock"):
            for p, boxes in enumerate(rank_fetch_boxes(screen, part).tolist()):
                clock0 = float(stats.clock[p])
                fp = block_footprint(screen, part.task_block(p))
                own_masks.append(footprint_element_mask(fp, basis))
                for r0, r1, c0, c1 in boxes:
                    bufs[p].fetch(
                        slice(offsets[r0], offsets[r1]),
                        slice(offsets[c0], offsets[c1]), CH_PREFETCH_GET,
                    )
                prefetch_time[p] = float(stats.clock[p]) - clock0
                tracer.virtual_span(
                    "prefetch", p, clock0, float(stats.clock[p]), cat="comm",
                    boxes=len(boxes), elements=int(fp.elements),
                )

        # -- task execution through the work-stealing scheduler --------------
        queues, cost_of = task_queues(part, costs, config, config.cores_per_node)

        def on_task(proc: int, task: int) -> None:
            m, n = divmod(int(task), basis.nshells)
            with tracer.span(f"task({m},{n})", cat="task", proc=proc) as sp:
                own = owners.of(task)
                bufs[proc].check_reads(
                    owners.images[own][:, _READS].reshape(-1, 2)
                )
                bufs[proc].rows.append(owners.rows[own])
                sp["quartets"] = int(own.stop - own.start)

        def on_steal(thief: int, victim: int) -> None:
            bufs[thief].merge_from(bufs[victim])

        with tracer.span("schedule", cat="fock"):
            outcome = run_work_stealing(
                queues, cost_of, (part.prow, part.pcol), stats=stats,
                d_copy_bytes=lambda v: int(bufs[v].have.sum()) * config.element_size,
                on_task=on_task, on_steal=on_steal, tracer=tracer, faults=fstate,
                event_observer=None if capture is None
                else lambda *event: capture.events.append(event),
            )

        # -- each surviving rank's rows against its local D ------------------
        dead = set(outcome.dead_ranks)
        local_g: dict[int, np.ndarray] = {}
        with tracer.span("contract", cat="fock"):
            for p in range(nproc):
                # a dead rank's rows died with it; survivors re-ran them
                if p not in dead and bufs[p].rows:
                    j, k = jk_from_rows(
                        engine, bufs[p].local_density(), plan,
                        np.sort(np.concatenate(bufs[p].rows)),
                    )
                    local_g[p] = 2.0 * j - k

        # -- final flush (Algorithm 4, line 9) --------------------------------
        flush_time = np.zeros(nproc)
        with tracer.span("flush", cat="fock"):

            def acc_bbox(p: int, g: np.ndarray, channel: str) -> None:
                nz = np.nonzero(g)
                if nz[0].size == 0:
                    return
                r0, r1 = int(nz[0].min()), int(nz[0].max()) + 1
                c0, c1 = int(nz[1].min()), int(nz[1].max()) + 1
                epoch = ("flush", p) if fstate is not None else None
                tag = ("flush", p, channel) if fstate is not None else None
                ga_g.acc(
                    p, r0, c0, g[r0:r1, c0:c1], channel=channel,
                    tag=tag, epoch=epoch,
                )

            for p, g in local_g.items():
                clock0 = float(stats.clock[p])
                if not g.any():
                    continue
                # attribute the flush: contributions inside this process's
                # own static-partition footprint are the ordinary F
                # accumulate; anything outside can only come from stolen
                # tasks and goes out on its own channel (non-thieves emit
                # exactly the single acc they always did)
                own = own_masks[p]
                if fstate is not None:
                    ga_g.begin_epoch(("flush", p))
                acc_bbox(p, np.where(own, g, 0.0), CH_FOCK_ACC)
                acc_bbox(p, np.where(own, 0.0, g), CH_STEAL_F)
                if fstate is not None:
                    ga_g.commit_epoch(("flush", p))
                flush_time[p] = float(stats.clock[p]) - clock0
                tracer.virtual_span(
                    "flush", p, clock0, float(stats.clock[p]), cat="comm"
                )
            fock = hcore + ga_g.to_numpy()
        top["steals"] = len(outcome.steals)
        top["quartets"] = float(outcome.executed_tasks.sum())
        if fstate is not None:
            top["dead_ranks"] = len(outcome.dead_ranks)
            top["reexecuted"] = outcome.reexecuted_tasks

    if capture is not None:
        capture.fill(
            basis.molecule.name or basis.molecule.formula,
            nproc * config.cores_per_node, config, stats, outcome,
            stats.clock, prefetch_time, flush_time,
        )
        # no resimulate closure: re-running the numeric build recomputes
        # real ERIs -- the analyzer's what-ifs stay projection-only here

    return GTFockBuildResult(fock, stats, outcome, part, screen, costs, fstate)
