"""Timing-level simulation of both Fock-build algorithms (Sec IV).

Runs the *same* partitioning, screening, footprint, and scheduling code
paths as the numeric builders, but charges modeled time per ERI and per
byte instead of moving data -- which is what lets the simulated machine
scale to the paper's molecules and core counts.  Produces the per-run
quantities behind every evaluation artifact:

* Table III/IV: ``t_fock_max`` per (molecule, cores, algorithm);
* Figure 2:     ``t_comp_avg`` vs ``t_overhead_avg``;
* Table VI/VII: ``comm_mb_per_proc`` / ``ga_calls_per_proc``;
* Table VIII:   ``load_balance``;
* Sec IV-C:     ``counter_accesses`` / ``queue_ops``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.fock.centralized import run_centralized
from repro.fock.cost import TaskCosts, quartet_cost_matrix
from repro.fock.nwchem_cost import build_nwchem_task_arrays
from repro.fock.partition import StaticPartition
# block_footprint is not called here any more (rank_footprints covers
# every rank at once); the name stays importable from this module because
# perfbench/layers.py's patch table wraps ``simulate.block_footprint``
from repro.fock.prefetch import block_footprint, rank_footprints  # noqa: F401
from repro.fock.screening_map import ScreeningMap
from repro.fock.stealing import StealingOutcome, run_work_stealing
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    phase,
    session,
)
from repro.obs.flight import CH_FOCK_ACC, CH_PREFETCH_GET
from repro.obs.profile import PHASE_SIM_LOOP
from repro.obs.trace import NullTracer
from repro.runtime.faults import FaultPlan, FaultState
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats


@dataclass
class FockSimResult:
    """One simulated Fock construction (one cell of Table III)."""

    algorithm: str
    molecule: str
    cores: int
    nproc: int
    #: Fock construction time = slowest process (Table III)
    t_fock_max: float
    t_fock_avg: float
    #: average pure-computation time per process (Figure 2)
    t_comp_avg: float
    #: average parallel overhead T_ov = T_fock - T_comp (Figure 2)
    t_overhead_avg: float
    #: l = T_max / T_avg (Table VIII)
    load_balance: float
    #: average GA volume per process, MB (Table VI)
    comm_mb_per_proc: float
    #: average GA calls per process (Table VII)
    ga_calls_per_proc: float
    #: average processes stolen from, s of Eq (9) (GTFock only)
    steals_avg: float = 0.0
    #: total accesses to the centralized counter (NWChem only)
    counter_accesses: int = 0
    #: average atomic local-queue operations per process (GTFock only)
    queue_ops_avg: float = 0.0
    total_eris: float = 0.0
    ntasks: int = 0
    #: :meth:`CommStats.summary` of the run (volume, calls, load balance)
    comm_summary: dict = field(default_factory=dict)
    #: all-rank bytes per flight-recorder channel (Table VI decomposition)
    comm_by_channel: dict = field(default_factory=dict)
    #: ranks killed by the fault plan (empty outside fault injection)
    dead_ranks: list = field(default_factory=list)
    #: tasks whose results died with their rank and were re-executed
    reexecuted_tasks: int = 0
    #: orphan-adoption events by survivors
    recoveries: int = 0
    #: retry/backoff/ack-loss totals (:meth:`FaultState.overhead_summary`)
    fault_overhead: dict = field(default_factory=dict)
    #: average per-rank endgame idle (makespan - own finish), seconds
    idle_seconds_avg: float = 0.0
    #: idle_seconds_avg / makespan -- the Table VI idle-fraction column
    idle_fraction: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class SimCapture:
    """Raw per-run state captured for the critical-path analyzer.

    A mutable container the caller hands to :func:`simulate_gtfock` (or
    :func:`repro.fock.gtfock.gtfock_build`) via ``capture=``; the
    simulation fills it with the accounting objects the analyzer in
    :mod:`repro.obs.critpath` consumes: the comm accounting, the
    scheduler's outcome (whose segment record and death times the
    critical path is built from), and the prefetch and flush phase times
    around it.  No trace is needed.  Deliberately *not* part of
    :class:`FockSimResult`: the result must stay ``asdict``-serializable
    while the capture holds live objects (closures, numpy arrays).

    Attributes are populated by the run; all default to ``None``/empty
    so a partially filled capture fails loudly in the analyzer rather
    than silently here.
    """

    def __init__(self) -> None:
        self.algorithm: str = ""
        self.molecule: str = ""
        self.cores: int = 0
        self.nproc: int = 0
        self.config: MachineConfig | None = None
        self.stats: CommStats | None = None
        self.outcome: StealingOutcome | None = None
        #: per-rank end time *after* the final F flush (= makespan input)
        self.finish: np.ndarray | None = None
        #: per-rank virtual seconds spent in the prefetch phase
        self.prefetch_time: np.ndarray | None = None
        #: per-rank virtual seconds spent in the final F flush
        self.flush_time: np.ndarray | None = None
        #: event-resolution log: ``(action, time, key)`` in pop order
        self.events: list[tuple[str, float, Any]] = []
        #: re-run the identical simulation under perturbed parameters;
        #: ``resimulate(enable_stealing=..., **config_overrides) -> makespan``
        self.resimulate: Callable[..., float] | None = None

    @property
    def makespan(self) -> float:
        if self.finish is None:
            raise ValueError("capture not populated: run a simulation first")
        return float(np.max(self.finish))

    def fill(
        self, molecule: str, cores: int, config: MachineConfig,
        stats: CommStats, outcome: StealingOutcome, finish: np.ndarray,
        prefetch_time: np.ndarray, flush_time: np.ndarray,
    ) -> None:
        """Record one GTFock build's accounting (either build's)."""
        self.algorithm, self.molecule, self.cores = "gtfock", molecule, cores
        self.nproc, self.config, self.stats = stats.nproc, config, stats
        self.outcome, self.finish = outcome, finish.copy()
        self.prefetch_time, self.flush_time = prefetch_time, flush_time


def task_queues(
    part: StaticPartition, costs: TaskCosts, config: MachineConfig, threads: int
) -> tuple[list[np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Both GTFock builds' schedule: each rank's task codes ``m * nshells
    + n``, row major over its block, and the vectorised cost of a code
    array (its ERIs at ``threads``-thread rate plus one task overhead)."""
    ns = part.nshells
    queues = []
    for p in range(part.nproc):
        blk = part.task_block(p)
        queues.append((blk.rows()[:, None] * ns + blk.cols()[None, :]).ravel())
    t_task = config.t_int_gtfock / threads
    eris_flat = costs.eris.ravel()

    def cost_of(codes: np.ndarray) -> np.ndarray:
        return eris_flat[codes] * t_task + config.task_overhead

    return queues, cost_of


def _finalize(
    algorithm: str,
    molecule: str,
    cores: int,
    stats: CommStats,
    t_comp: np.ndarray,
    finish: np.ndarray,
    **extra,
) -> FockSimResult:
    t_avg = float(finish.mean())
    t_max = float(finish.max())
    # endgame idle: each rank waits at the closing barrier for the
    # slowest one; exported per rank so the observatory can watch the
    # balance story behind Table VIII, not just its summary ratio
    idle = t_max - finish
    get_metrics().gauge(
        "repro_sim_idle_seconds",
        "Per-rank endgame idle time in the latest simulated Fock build "
        "of each algorithm (makespan minus own finish)",
        labelnames=("proc", "algorithm"),
    ).set_all("proc", idle.tolist(), algorithm=algorithm)
    # the Fock phase ends at a barrier: average parallel overhead counts
    # everything that is not computation -- communication, scheduler
    # waits, and endgame idling behind the slowest process (the paper's
    # three overhead sources, Sec IV-C)
    return FockSimResult(
        algorithm=algorithm,
        molecule=molecule,
        cores=cores,
        nproc=stats.nproc,
        t_fock_max=float(finish.max()),
        t_fock_avg=t_avg,
        t_comp_avg=float(t_comp.mean()),
        t_overhead_avg=max(float(finish.max()) - float(t_comp.mean()), 0.0),
        load_balance=float(finish.max()) / t_avg if t_avg > 0 else 1.0,
        comm_mb_per_proc=stats.volume_mb_per_process(),
        ga_calls_per_proc=stats.calls_per_process(),
        comm_summary=stats.summary(),
        comm_by_channel=stats.flight.channel_totals("bytes"),
        idle_seconds_avg=float(idle.mean()),
        idle_fraction=float(idle.mean()) / t_max if t_max > 0 else 0.0,
        **extra,
    )


def simulate_gtfock(
    basis: BasisSet,
    screen: ScreeningMap,
    cores: int,
    config: MachineConfig = LONESTAR,
    costs: TaskCosts | None = None,
    enable_stealing: bool = True,
    molecule_name: str = "",
    faults: FaultPlan | FaultState | None = None,
    tracer: Tracer | None = None,
    capture: SimCapture | None = None,
) -> FockSimResult:
    """Simulate the paper's algorithm at ``cores`` total cores.

    GTFock runs one process per node with node-wide threading
    (Sec IV-A), so ``nproc = max(1, cores // cores_per_node)`` and each
    process computes ERIs at node rate.

    ``faults`` runs the timing simulation under fault injection: the
    result additionally carries dead ranks, re-executed task counts and
    retry overhead, and every retried transfer shows up on the
    flight recorder's ``retry`` channel.

    ``capture`` is an optional :class:`SimCapture` that the run fills
    with the raw accounting (stats, stealing outcome, phase times,
    event log, a ``resimulate`` closure) for
    :func:`repro.obs.critpath.analyze`.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    if tracer is None:
        tracer = get_tracer()
    nproc = max(1, cores // config.cores_per_node)
    threads = min(cores, config.cores_per_node)
    if costs is None:
        costs = quartet_cost_matrix(screen)
    ns = basis.nshells
    if isinstance(faults, FaultPlan):
        fstate: FaultState | None = faults.activate(nproc)
    else:
        fstate = faults
    part = StaticPartition.build(ns, nproc)
    stats = CommStats(nproc, config, faults=fstate)

    # -- prefetch: exact union footprint volume, boxed-region call count ----
    elements, prefetch_calls = rank_footprints(screen, part)
    footprint_bytes = (elements * config.element_size).astype(float)
    ranks = np.arange(nproc)
    stats.charge_comm_batch(
        ranks, footprint_bytes, prefetch_calls, channel=CH_PREFETCH_GET
    )
    # the run starts at clock zero: what prefetch charged is the clock
    prefetch_time = stats.clock.copy()
    if tracer.enabled:
        for p in np.flatnonzero(prefetch_time > 0).tolist():
            tracer.virtual_span(
                "prefetch", p, 0.0, float(prefetch_time[p]), cat="comm",
                nbytes=float(footprint_bytes[p]), calls=int(prefetch_calls[p]),
            )

    # -- work-stealing execution over per-task costs ------------------------
    queues, cost_of = task_queues(part, costs, config, threads)
    # a victim's D buffer is its prefetched footprint
    d_bytes = footprint_bytes.tolist()
    event_observer = None
    if capture is not None:
        event_observer = lambda action, time, key: capture.events.append(
            (action, time, key)
        )

    with phase(PHASE_SIM_LOOP):
        outcome = run_work_stealing(
            queues,
            cost_of,
            (part.prow, part.pcol),
            stats=stats,
            d_copy_bytes=d_bytes.__getitem__,
            enable_stealing=enable_stealing,
            tracer=tracer,
            faults=fstate,
            event_observer=event_observer,
        )

    # -- final flush of the F buffers ----------------------------------------
    # a dead rank never flushes; survivors re-flushed its work
    alive = np.setdiff1d(ranks, outcome.dead_ranks)
    fp_calls = 3  # three near-contiguous F regions accumulated back
    clock0 = stats.clock.copy()
    stats.charge_comm_batch(
        alive, footprint_bytes[alive], fp_calls, channel=CH_FOCK_ACC
    )
    # clock delta, not transfer_time: under fault injection the
    # flush also pays retries and backoff
    flush_time = stats.clock - clock0
    finish = outcome.finish_time + flush_time
    if tracer.enabled:
        for p in np.flatnonzero(flush_time > 0).tolist():
            tracer.virtual_span(
                "flush", p, float(finish[p] - flush_time[p]), float(finish[p]),
                cat="comm", nbytes=float(footprint_bytes[p]), calls=fp_calls,
            )

    molecule = molecule_name or (basis.molecule.name or basis.molecule.formula)
    if capture is not None:
        capture.fill(
            molecule, cores, config, stats, outcome, finish, prefetch_time,
            flush_time,
        )

        def resimulate(enable_stealing=enable_stealing, **overrides) -> float:
            """Re-run this exact simulation under perturbed parameters."""
            cfg = config.with_(**overrides) if overrides else config
            # a what-if re-simulation must not overwrite the primary
            # run's exported metrics: divert them to a throwaway registry
            with session(metrics=MetricsRegistry()):
                res = simulate_gtfock(
                    basis,
                    screen,
                    cores,
                    config=cfg,
                    costs=costs,
                    enable_stealing=enable_stealing,
                    molecule_name=molecule_name,
                    faults=faults,
                    tracer=NullTracer(),
                )
            return res.t_fock_max

        capture.resimulate = resimulate

    return _finalize(
        "gtfock",
        molecule,
        cores,
        stats,
        outcome.executed_cost,
        finish,
        steals_avg=outcome.avg_steals_per_proc,
        queue_ops_avg=float(outcome.queue_ops.mean()),
        total_eris=costs.total_eris,
        ntasks=ns * ns,
        dead_ranks=list(outcome.dead_ranks),
        reexecuted_tasks=int(outcome.reexecuted_tasks),
        recoveries=len(outcome.recoveries),
        fault_overhead=fstate.overhead_summary() if fstate is not None else {},
    )


def simulate_nwchem(
    basis: BasisSet,
    screen: ScreeningMap,
    cores: int,
    config: MachineConfig = LONESTAR,
    costs: TaskCosts | None = None,
    molecule_name: str = "",
) -> FockSimResult:
    """Simulate NWChem's algorithm: one process per core, central counter."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    nproc = cores
    if costs is None:
        costs = quartet_cost_matrix(screen)
    arrays = build_nwchem_task_arrays(
        screen,
        total_eris=costs.total_eris,
        t_int=config.t_int_nwchem,
        task_overhead=config.task_overhead,
        element_size=config.element_size,
    )
    stats = CommStats(nproc, config)
    with phase(PHASE_SIM_LOOP):
        outcome = run_centralized(arrays, nproc, stats)
    return _finalize(
        "nwchem",
        molecule_name or (basis.molecule.name or basis.molecule.formula),
        cores,
        stats,
        outcome.executed_cost,
        outcome.finish_time,
        counter_accesses=outcome.counter_accesses,
        total_eris=costs.total_eris,
        ntasks=arrays.ntasks,
    )
