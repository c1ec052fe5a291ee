"""Work-stealing distributed scheduler simulation (Sec III-F).

Each process drains its own task queue; when empty it scans the process
grid row-wise (starting from its own row), steals a block of tasks --
half of the victim's remaining queue -- copies the victim's D buffer
(that copy is the ``(1+s)`` factor of Eq 9), and continues.  Stolen-F
buffers are accumulated back to the victim when the thief moves on.

The simulation is event-driven with O(p + steals) events: a process's
whole queue is one event, split lazily when a thief interrupts it.  The
``on_task`` callback makes the same machinery drive both timing-only runs
and numeric builds (where the callback computes real ERIs into the
executing process's buffers).

State is array-backed: each rank's batch is a task sequence plus NumPy
base-cost and cumulative-cost arrays with a live length (a steal takes
the victim's tail as a view), and two per-rank vectors -- batch start
time and a *stealability threshold* -- let an idle rank find its victim
with one vectorised compare instead of probing queues one by one (see
"Simulator hot path" in ``docs/PERFORMANCE.md``).

Fault tolerance (``faults=``): the scheduler honors a
:class:`~repro.runtime.faults.FaultState` -- stragglers execute their
batches slower, completion events can be delivered late, and a rank can
die at a virtual time.  Death is survivable by construction: tasks are
idempotent ERI batches accumulated into rank-local F buffers and flushed
once, so a dead rank's queued *and* executed-but-unflushed tasks simply
re-enter the pool (the orphan queue) and are re-executed by survivors.
Thieves detect a dead victim on probe (its queue is gone); idle ranks
adopt orphans before declaring themselves done, and a death that fires
after everyone drained wakes the earliest-idle survivor.  See
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs import Tracer, get_tracer
from repro.obs.flight import CH_QUEUE, CH_STEAL_TASK
from repro.runtime.event import EventQueue
from repro.runtime.faults import FaultState
from repro.runtime.network import CommStats


@dataclass
class StealRecord:
    time: float
    thief: int
    victim: int
    ntasks: int


@dataclass
class RecoveryRecord:
    """A survivor adopting orphaned tasks of a dead rank."""

    time: float
    rank: int
    ntasks: int
    #: how many of the adopted tasks had already been executed (and lost)
    reexecuted: int


@dataclass
class StealingOutcome:
    """What the scheduler run produced."""

    #: wall-clock (virtual) completion time per process
    finish_time: np.ndarray
    #: pure compute seconds executed per process
    executed_cost: np.ndarray
    #: number of tasks executed per process
    executed_tasks: np.ndarray
    steals: list[StealRecord] = field(default_factory=list)
    #: per-process local queue accesses (atomic ops on local queues)
    queue_ops: np.ndarray | None = None
    #: ranks that died during the run (fault injection)
    dead_ranks: list[int] = field(default_factory=list)
    #: orphan adoptions by survivors (fault injection)
    recoveries: list[RecoveryRecord] = field(default_factory=list)
    #: tasks executed by a dead rank whose results were lost + re-executed
    reexecuted_tasks: int = 0
    #: per-rank task execution history (only kept under fault injection)
    executed_history: list[list[Any]] | None = None
    #: per-rank idle-blocked wait: time spent done-and-parked before being
    #: woken to adopt a dead rank's orphans (zero outside fault injection)
    blocked_time: np.ndarray | None = None
    #: per-rank base cost of the *initial* static-partition queue -- what
    #: each rank would compute with stealing disabled (the critical-path
    #: analyzer's steal-off what-if replays this)
    initial_cost: np.ndarray | None = None

    @property
    def makespan(self) -> float:
        return float(self.finish_time.max())

    @property
    def avg_steals_per_proc(self) -> float:
        """The paper's s: average number of *distinct* victims per process."""
        pairs = {(s.thief, s.victim) for s in self.steals}
        return len(pairs) / len(self.finish_time)

    def load_balance_ratio(self) -> float:
        """l = T_max / T_avg over per-process busy finish times (Table VIII)."""
        avg = float(self.finish_time.mean())
        return float(self.finish_time.max()) / avg if avg > 0 else 1.0


class _Batch:
    """One rank's live batch: ``tasks[:n]`` / ``costs[:n]`` / ``cum[:n]``.

    ``costs`` are *base* costs; ``cum`` is their running sum scaled by
    the executing rank's straggler slowdown (stolen tasks run at the
    thief's rate, not the victim's).  A thief shrinks ``n`` and walks
    away with views of the tail; ``n == 0`` means the rank is not
    executing anything.
    """

    __slots__ = ("tasks", "costs", "cum", "n")

    def __init__(self) -> None:
        self.tasks: Any = ()
        self.costs = self.cum = np.empty(0)
        self.n = 0


def victim_scan_order(proc: int, prow: int, pcol: int) -> list[int]:
    """Row-wise victim scan starting from the thief's own grid row."""
    gi, gj = divmod(proc, pcol)
    order = []
    for r in range(prow):
        row = (gi + r) % prow
        for c in range(pcol):
            col = (gj + c) % pcol if r == 0 else c
            p = row * pcol + col
            if p != proc:
                order.append(p)
    return order


def in_scan_order(per_rank: np.ndarray, thief: int, pcol: int) -> np.ndarray:
    """``per_rank`` values of all other ranks, in the thief's scan order.

    ``victim_scan_order`` is four ascending runs of ranks -- the thief's
    own row from its right neighbour to the row end, the row start up to
    the thief, then the later rows and (wrapping) the earlier ones -- so
    it is derived per steal attempt in O(p) instead of being stored for
    every thief (O(p^2) ints).
    """
    row0 = thief - thief % pcol
    return np.concatenate((
        per_rank[thief + 1 : row0 + pcol], per_rank[row0:thief],
        per_rank[row0 + pcol :], per_rank[:row0],
    ))


def scan_rank(index: int, thief: int, pcol: int, nproc: int) -> int:
    """``victim_scan_order(thief, ...)[index]`` without building the list."""
    row0 = thief - thief % pcol
    if index < pcol - 1:
        return row0 + (thief - row0 + 1 + index) % pcol
    return (row0 + index + 1) % nproc


_DEATH = "death"  # event-key marker for scheduled rank deaths


def run_work_stealing(
    queues: Sequence[Sequence[Any] | np.ndarray],
    cost_of: Callable[[Any], Any],
    grid: tuple[int, int],
    stats: CommStats | None = None,
    steal_cost: Callable[[int, int], float] | None = None,
    on_task: Callable[[int, Any], None] | None = None,
    on_steal: Callable[[int, int], None] | None = None,
    enable_stealing: bool = True,
    steal_fraction: float = 0.5,
    min_steal: int = 1,
    tracer: Tracer | None = None,
    faults: FaultState | None = None,
    rng: np.random.Generator | None = None,
    on_recover: Callable[[int, list[Any]], None] | None = None,
    event_observer: Callable[[str, float, Any], None] | None = None,
) -> StealingOutcome:
    """Simulate the work-stealing execution of per-process task queues.

    Parameters
    ----------
    queues:
        Initial task sequence per process (the static partition's
        blocks): a list of arbitrary task objects, or a NumPy array of
        task codes.
    cost_of:
        Virtual execution cost (seconds) of one task.  An array queue is
        costed in one vectorised call ``cost_of(codes) -> costs``; a
        list queue task by task.
    grid:
        (prow, pcol) process grid shape; defines the victim scan order.
    stats:
        Optional accounting whose per-process clocks give each process's
        start time (e.g. after prefetch); finish times are written back.
    steal_cost:
        ``steal_cost(thief, victim) -> seconds`` charged to the thief per
        steal (D-buffer copy + queue atomics).  Zero if omitted.
    on_task:
        Invoked as ``on_task(executing_proc, task)`` for every task, once
        per *execution* -- under fault injection a task lost to a rank
        death is re-executed (and the callback re-fires) on a survivor.
    on_steal:
        Invoked as ``on_steal(thief, victim)`` at steal time -- numeric
        builds use it to copy the victim's local D buffer to the thief.
    enable_stealing:
        Switch stealing off to measure raw static-partition imbalance.
    min_steal:
        Do not bother stealing fewer than this many tasks: endgame
        single-task steals cost a D-buffer copy for near-zero work.
    tracer:
        Observability sink (defaults to the current session's tracer).  When
        enabled, every executed task and batch becomes a virtual span on
        its rank's trace thread with *exact* scheduler times, and every
        steal / idle transition an instant event carrying victim, batch
        size, and the number of victim-queue probes scanned.
    faults:
        Activated fault plan: straggler slowdowns scale batch costs,
        delayed messages perturb completion events, and rank deaths
        orphan the dead rank's unflushed tasks back into the pool.
    rng:
        Seeded generator for steal tie-breaks: when given, each steal
        attempt scans a seeded permutation of the victim order instead
        of the fixed row-wise scan, making contention patterns
        reproducible from the seed (chaos runs pass the fault state's
        generator).
    on_recover:
        Invoked as ``on_recover(rank, tasks)`` when a survivor adopts
        orphaned tasks (numeric builds may prefetch the tasks' D blocks
        here; the GTFock build instead falls back to on-demand fetches).
    event_observer:
        Forwarded to the :class:`EventQueue`; sees every schedule /
        cancel / pop in resolution order (dependency capture).
    """
    if tracer is None:
        tracer = get_tracer()
    prow, pcol = grid
    nproc = prow * pcol
    if len(queues) != nproc:
        raise ValueError(f"{len(queues)} queues for a {prow}x{pcol} grid")
    if not 0.0 < steal_fraction <= 1.0:
        raise ValueError("steal_fraction must be in (0, 1]")
    min_avail = max(1, min_steal)

    batches = [_Batch() for _ in range(nproc)]
    #: per-rank batch start time, and the cumulative cost that must still
    #: lie ahead of a thief's arrival for ``min_avail`` tasks to be
    #: stealable behind the one in flight (-inf: nothing to steal)
    start = np.zeros(nproc)
    threshold = np.full(nproc, -np.inf)
    events = EventQueue(
        perturb=faults.perturb_event if faults is not None else None,
        observer=event_observer,
    )
    finish = np.zeros(nproc)
    executed_cost = np.zeros(nproc)
    blocked_time = np.zeros(nproc)
    initial_cost = np.zeros(nproc)
    executed_tasks = np.zeros(nproc, dtype=np.int64)
    queue_ops = np.zeros(nproc, dtype=np.int64)
    steals: list[StealRecord] = []
    done = np.zeros(nproc, dtype=bool)
    dead = np.zeros(nproc, dtype=bool)

    track_faults = faults is not None
    #: per-rank (task, base_cost) execution history, for death recovery
    history: list[list[tuple[Any, float]]] = [[] for _ in range(nproc)]
    #: (task, base_cost, was_executed) blocks orphaned by rank deaths
    orphans: list[tuple[Any, float, bool]] = []
    recoveries: list[RecoveryRecord] = []
    reexecuted = 0

    def set_threshold(p: int) -> None:
        b = batches[p]
        j = b.n - 1 - min_avail
        threshold[p] = b.cum[j] if j >= 0 else -np.inf

    def begin(p: int, tasks: Any, costs: np.ndarray, t0: float) -> float:
        """Start a batch on rank ``p`` at ``t0``; returns its base cost."""
        b = batches[p]
        cum = costs.cumsum()
        n = len(cum)
        base = cum[-1] if n else 0.0
        if faults is not None:
            cum *= faults.compute_factor(p)
        b.tasks, b.costs, b.cum, b.n = tasks, costs, cum, n
        start[p] = t0
        set_threshold(p)
        events.schedule(t0 + (cum[-1] if n else 0.0), p)
        return base

    def completed_by(p: int, t: float) -> int:
        """Number of rank ``p``'s batch tasks fully executed by time t."""
        b = batches[p]
        return int(b.cum[: b.n].searchsorted(t - start[p] + 1e-15, side="right"))

    for p, tasks in enumerate(queues):
        if isinstance(tasks, np.ndarray):
            costs = np.asarray(cost_of(tasks), dtype=float)
        else:
            costs = np.fromiter(map(cost_of, tasks), dtype=float, count=len(tasks))
        t0 = float(stats.clock[p]) if stats is not None else 0.0
        initial_cost[p] = begin(p, tasks, costs, t0)
        queue_ops[p] += 1  # one atomic enqueue of the whole initial block
    if faults is not None:
        for p, t_death in faults.plan.deaths.items():
            if 0 <= p < nproc:
                events.schedule(float(t_death), (_DEATH, p))

    def adopt_orphans(p: int, t: float) -> bool:
        """Rank ``p`` takes a block from the orphan pool at time ``t``."""
        nonlocal reexecuted
        if not orphans or dead[p]:
            return False
        n = max(1, int(len(orphans) * steal_fraction))
        take = orphans[-n:]
        del orphans[-n:]
        tasks = [x[0] for x in take]
        nre = sum(1 for x in take if x[2])
        reexecuted += nre
        queue_ops[p] += 1  # atomic pop from the recovery pool
        if on_recover is not None:
            on_recover(p, tasks)
        if done[p] and t > finish[p]:
            # this rank had declared itself done at finish[p] and sat
            # idle until the death woke it: a genuine cross-rank blocked
            # wait (the only start-time dependency between ranks)
            blocked_time[p] += t - finish[p]
            if tracer.enabled:
                tracer.virtual_span(
                    "blocked", p, float(finish[p]), t, cat="sched"
                )
        done[p] = False
        begin(p, tasks, np.array([x[1] for x in take], dtype=float), t)
        recoveries.append(RecoveryRecord(t, p, len(take), nre))
        tracer.virtual_instant(
            "recover", p, t, cat="sched", ntasks=len(take), reexecuted=nre
        )
        return True

    def kill(p: int, t: float) -> None:
        """Execute rank ``p``'s death at virtual time ``t``."""
        b = batches[p]
        dead[p] = True
        # everything this rank executed since its last (never-happened)
        # flush is lost with its memory; queued work is lost with it too
        lost: list[tuple[Any, float, bool]] = [
            (task, cost, True) for task, cost in history[p]
        ]
        history[p].clear()
        if b.n:
            k = completed_by(p, t)
            for i, (task, cost) in enumerate(zip(b.tasks[: b.n], b.costs[: b.n])):
                lost.append((task, cost, i < k))
            # the rank did burn real time on the partial batch
            executed_cost[p] += min(max(t - start[p], 0.0), b.cum[b.n - 1])
            b.n = 0
            threshold[p] = -np.inf
        events.cancel(p)
        if not done[p]:
            finish[p] = t
            done[p] = True
        orphans.extend(lost)
        tracer.virtual_instant(
            "death", p, t, cat="sched", orphaned=len(lost)
        )
        # wake idle survivors: a death after the pool drained would
        # otherwise strand its orphans forever
        for q in sorted(
            (q for q in range(nproc) if done[q] and not dead[q]),
            key=lambda q: finish[q],
        ):
            if not orphans:
                break
            adopt_orphans(q, max(t, float(finish[q])))

    while True:
        ev = events.pop()
        if ev is None:
            break
        # event times come off the heap as NumPy scalars; every trace row
        # below carries this one plain float (the exporter's fast path)
        t, key = float(ev[0]), ev[1]
        if isinstance(key, tuple) and key[0] == _DEATH:
            kill(key[1], t)
            continue
        p = key
        b = batches[p]
        n = b.n
        if n:
            # the whole (possibly shrunk) batch has run to completion
            tasks = b.tasks[:n]
            executed_cost[p] += b.cum[n - 1]
            executed_tasks[p] += n
            if track_faults:
                history[p].extend(zip(tasks, b.costs[:n]))
            if on_task is not None:
                for task in tasks:
                    on_task(p, task)
            if tracer.enabled:
                t0 = float(start[p])
                tracer.virtual_span("batch", p, t0, t, cat="sched", ntasks=n)
                # handed over as views, not copies: a ``cum`` array is
                # never written after ``begin`` built it, ``tasks`` is
                # never written at all, and a later steal or death only
                # shrinks the owner's ``n``
                tracer.virtual_task_run(p, t0, b.cum[:n], tasks)
            b.n = 0
            threshold[p] = -np.inf

        # orphaned work outranks stealing: it is the only copy left
        if adopt_orphans(p, t):
            continue

        victim, probes = -1, 0
        if enable_stealing and nproc > 1:
            # a victim can spare ``min_avail`` tasks behind its in-flight
            # one iff that much cumulative cost still lies past ``t``
            spare = in_scan_order(threshold > (t - start) + 1e-15, p, pcol)
            if rng is not None:
                # seeded tie-break: scan a permutation of the row-wise order
                perm = rng.permutation(nproc - 1)
                spare = spare[perm]
            first = int(spare.argmax())
            if spare[first]:
                probes = first + 1
                victim = scan_rank(
                    int(perm[first]) if rng is not None else first, p, pcol, nproc
                )
            else:
                probes = nproc - 1
            # every queue scanned before the victim's came back empty (a
            # dead victim's queue no longer exists): one probe each
            queue_ops[p] += probes
            if victim >= 0:
                vb = batches[victim]
                # the task in flight at time t cannot be stolen
                avail = vb.n - (completed_by(victim, t) + 1)
                cut = vb.n - max(1, int(avail * steal_fraction))
                stolen_tasks = vb.tasks[cut : vb.n]
                stolen_costs = vb.costs[cut : vb.n]
                # shrink the victim in place and reschedule its finish
                vb.n = cut
                set_threshold(victim)
                queue_ops[victim] += 1  # atomic update of victim queue
                events.schedule(max(start[victim] + vb.cum[cut - 1], t), victim)
                if on_steal is not None:
                    on_steal(p, victim)
                # the thief pays for copying the victim's D buffer
                dt = steal_cost(p, victim) if steal_cost is not None else 0.0
                if stats is not None and dt > 0:
                    stats.comm_time[p] += dt
                if tracer.enabled and dt > 0:
                    tracer.virtual_span(
                        "steal_copy", p, t, float(t + dt), cat="comm",
                        victim=victim,
                    )
                begin(p, stolen_tasks, stolen_costs, t + dt)
                steals.append(StealRecord(t, p, victim, len(stolen_costs)))
                tracer.virtual_instant(
                    "steal", p, t, cat="sched",
                    victim=victim, ntasks=len(stolen_costs), scans=probes,
                )
        if victim < 0:
            done[p] = True
            finish[p] = t
            if tracer.enabled and enable_stealing:
                tracer.virtual_instant("idle", p, t, cat="sched", scans=probes)

    if stats is not None:
        stats.clock[:] = np.maximum(stats.clock, finish)
        stats.comp_time += executed_cost
        # queue atomics reach the flight recorder once: each rank's
        # initial enqueue on ``queue``, every later one (probes, victim
        # updates, orphan pops) on ``steal_task``
        stats.flight.record_ops(CH_QUEUE, np.ones(nproc, dtype=np.int64))
        if (queue_ops > 1).any():
            stats.flight.record_ops(CH_STEAL_TASK, queue_ops - 1)

    return StealingOutcome(
        finish_time=finish,
        executed_cost=executed_cost,
        executed_tasks=executed_tasks,
        steals=steals,
        queue_ops=queue_ops,
        dead_ranks=sorted(int(p) for p in np.flatnonzero(dead)),
        recoveries=recoveries,
        reexecuted_tasks=reexecuted,
        executed_history=history if track_faults else None,
        blocked_time=blocked_time,
        initial_cost=initial_cost,
    )
