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

Per-rank state is plain Python lists: each rank's batch is a task
sequence plus NumPy base-cost and cumulative-cost arrays with a live
length (a steal takes the victim's tail as a view), and a *stealability
threshold* per rank turns "can this victim spare a task at time t" into
one float compare.  Event times never decrease, so a rank that fails the
compare keeps failing it until its batch is replaced: an idle rank looks
for its victim in a sorted candidate list that drops such ranks as it
meets them (see "Simulator hot path" in ``docs/PERFORMANCE.md``).

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

import gc
from bisect import bisect_left
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


def scan_rank(index: int, thief: int, pcol: int, nproc: int) -> int:
    """The ``index``-th victim of the row-wise scan that starts in the
    thief's own grid row: the rest of that row (wrapping), then the ranks
    of the following rows in rank order, wrapping past the last rank
    (``tests/reference_stealing.py`` builds the whole list)."""
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
    d_copy_bytes: Callable[[int], float] | None = None,
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
    d_copy_bytes:
        ``d_copy_bytes(victim) -> bytes`` of its D buffer, which a thief
        copies on its first steal from that victim (Sec III-F): charged
        to ``stats`` (required) on ``steal_d``, delaying the stolen batch.
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
    if d_copy_bytes is not None and stats is None:
        raise ValueError("d_copy_bytes needs stats to charge the copies to")
    min_avail = max(1, min_steal)

    #: rank p's live batch is ``tasks_of[p][:live[p]]`` with base costs
    #: ``costs_of[p]`` and their running sum ``cum_of[p]``, scaled by p's
    #: straggler slowdown (stolen tasks run at the thief's rate); a thief
    #: lowers the victim's ``live`` and walks away with views of the tail
    tasks_of: list[Any] = [()] * nproc
    costs_of: list[Any] = [None] * nproc
    cum_of: list[Any] = [None] * nproc
    live = [0] * nproc
    #: batch start time, and the cumulative cost that must still lie
    #: ahead of a thief's arrival for ``min_avail`` tasks to be stealable
    #: behind the one in flight (-inf: nothing to steal)
    start = [0.0] * nproc
    threshold = [-np.inf] * nproc
    #: ascending ranks that may pass the stealability test; a rank that
    #: fails it is dropped until its next batch begins
    candidates: list[int] = []
    events = EventQueue(
        perturb=faults.perturb_event if faults is not None else None,
        observer=event_observer,
    )
    finish = [0.0] * nproc
    executed_cost = [0.0] * nproc
    blocked_time = [0.0] * nproc
    initial_cost = [0.0] * nproc
    executed_tasks = [0] * nproc
    queue_ops = [0] * nproc
    steals: list[StealRecord] = []
    done = [False] * nproc
    dead = [False] * nproc

    track_faults = faults is not None
    #: per-rank (task, base_cost) execution history, for death recovery
    history: list[list[tuple[Any, float]]] = [[] for _ in range(nproc)]
    #: (task, base_cost, was_executed) blocks orphaned by rank deaths
    orphans: list[tuple[Any, float, bool]] = []
    recoveries: list[RecoveryRecord] = []
    reexecuted = 0
    #: (thief, victim) pairs whose D copy is paid
    copied: set[tuple[int, int]] = set()

    def set_threshold(p: int) -> None:
        j = live[p] - 1 - min_avail
        threshold[p] = float(cum_of[p][j]) if j >= 0 else -np.inf

    def begin(p: int, tasks: Any, costs: np.ndarray, t0: float) -> float:
        """Start a batch on rank ``p`` at ``t0``; returns its base cost."""
        cum = costs.cumsum()
        n = len(cum)
        base = cum[-1] if n else 0.0
        if faults is not None:
            cum *= faults.compute_factor(p)
        tasks_of[p], costs_of[p], cum_of[p], live[p] = tasks, costs, cum, n
        start[p] = t0
        set_threshold(p)
        if threshold[p] > -np.inf:
            i = bisect_left(candidates, p)
            if i == len(candidates) or candidates[i] != p:
                candidates.insert(i, p)
        events.schedule(t0 + (float(cum[-1]) if n else 0.0), p)
        return base

    def completed_by(p: int, t: float) -> int:
        """Number of rank ``p``'s batch tasks fully executed by time t."""
        cum = cum_of[p][: live[p]]
        return int(cum.searchsorted(t - start[p] + 1e-15, side="right"))

    def find_victim(p: int, t: float) -> tuple[int, int]:
        """``(victim, probes)`` of thief ``p``'s scan at ``t`` (victim -1:
        every other queue was probed and came back empty).  ``v`` can spare
        ``min_avail`` tasks behind its in-flight one iff ``threshold[v] >
        (t - start[v]) + 1e-15``; pop times never decrease, so a rank that
        fails leaves the candidates until ``begin`` gives it a new batch.
        """
        perm = rng.permutation(nproc - 1) if rng is not None else None
        # the row-wise scan order is four ascending runs of ranks
        row0 = p - p % pcol
        row1 = row0 + pcol
        skipped = 0  # ranks in the runs before this one
        for lo, hi in ((p + 1, row1), (row0, p), (row1, nproc), (0, row0)):
            i = bisect_left(candidates, lo)
            while i < len(candidates) and candidates[i] < hi:
                v = candidates[i]
                if threshold[v] > (t - start[v]) + 1e-15:
                    if perm is None:
                        return v, skipped + v - lo + 1
                    # seeded tie-break: some rank is spare, so a walk down
                    # the permuted scan order stops at its first spare one
                    for k, pos in enumerate(perm.tolist()):
                        v = scan_rank(pos, p, pcol, nproc)
                        if threshold[v] > (t - start[v]) + 1e-15:
                            return v, k + 1
                del candidates[i]
            skipped += hi - lo
        return -1, nproc - 1

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
                    "blocked", p, finish[p], t, cat="sched"
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
        n = live[p]
        dead[p] = True
        # everything this rank executed since its last (never-happened)
        # flush is lost with its memory; queued work is lost with it too
        lost: list[tuple[Any, float, bool]] = [
            (task, cost, True) for task, cost in history[p]
        ]
        history[p].clear()
        if n:
            k = completed_by(p, t)
            for i, (task, cost) in enumerate(zip(tasks_of[p][:n], costs_of[p][:n])):
                lost.append((task, cost, i < k))
            # the rank did burn real time on the partial batch
            executed_cost[p] += min(max(t - start[p], 0.0), cum_of[p][n - 1])
            live[p] = 0
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
            adopt_orphans(q, max(t, finish[q]))

    # the loop allocates O(events) long-lived containers (steal records,
    # trace rows, captured events) and no reference cycles: the cyclic
    # collector's full passes over that growing heap were most of the
    # tracing tax, so it is paused and catches up once the loop ends
    collecting = gc.isenabled()
    gc.disable()
    try:
        while True:
            ev = events.pop()
            if ev is None:
                break
            # every trace row below carries this one plain float (the
            # exporter's fast path), whatever number types the callbacks return
            t, p = float(ev[0]), ev[1]
            if type(p) is tuple:
                kill(p[1], t)
                continue
            n = live[p]
            if n:
                # the whole (possibly shrunk) batch has run to completion
                cum = cum_of[p]
                executed_cost[p] += float(cum[n - 1])
                executed_tasks[p] += n
                if track_faults or on_task is not None or tracer.enabled:
                    tasks = tasks_of[p][:n]
                    if track_faults:
                        history[p].extend(zip(tasks, costs_of[p][:n]))
                    if on_task is not None:
                        for task in tasks:
                            on_task(p, task)
                    if tracer.enabled:
                        t0 = float(start[p])
                        tracer.virtual_span("batch", p, t0, t, cat="sched", ntasks=n)
                        # handed over as views, not copies: a ``cum`` array is
                        # never written after ``begin`` built it, ``tasks`` is
                        # never written at all, and a later steal or death only
                        # shrinks the owner's ``live``
                        tracer.virtual_task_run(p, t0, cum[:n], tasks)
                live[p] = 0
                threshold[p] = -np.inf

            # orphaned work outranks stealing: it is the only copy left
            if orphans and adopt_orphans(p, t):
                continue

            victim, probes = -1, 0
            if enable_stealing and nproc > 1:
                victim, probes = find_victim(p, t)
                # every queue scanned before the victim's came back empty (a
                # dead victim's queue no longer exists): one probe each
                queue_ops[p] += probes
            if victim >= 0:
                n = live[victim]
                # the task in flight at time t cannot be stolen
                avail = n - (completed_by(victim, t) + 1)
                cut = n - max(1, int(avail * steal_fraction))
                stolen_tasks = tasks_of[victim][cut:n]
                stolen_costs = costs_of[victim][cut:n]
                # shrink the victim in place and reschedule its finish
                live[victim] = cut
                set_threshold(victim)
                queue_ops[victim] += 1  # atomic update of victim queue
                events.schedule(max(start[victim] + float(cum_of[victim][cut - 1]), t), victim)
                if on_steal is not None:
                    on_steal(p, victim)
                # the thief copies the victim's D buffer, once per new victim
                dt = 0.0
                if d_copy_bytes is not None and (p, victim) not in copied:
                    copied.add((p, victim))
                    dt = stats.charge_steal(p, d_copy_bytes(victim), ncalls=1)
                    stats.comm_time[p] += dt
                if tracer.enabled and dt > 0:
                    tracer.virtual_span(
                        "steal_copy", p, t, float(t + dt), cat="comm",
                        victim=victim,
                    )
                begin(p, stolen_tasks, stolen_costs, t + dt)
                steals.append(StealRecord(t, p, victim, n - cut))
                if tracer.enabled:
                    tracer.virtual_instant(
                        "steal", p, t, cat="sched",
                        victim=victim, ntasks=n - cut, scans=probes,
                    )
            else:
                done[p] = True
                finish[p] = t
                if tracer.enabled and enable_stealing:
                    tracer.virtual_instant("idle", p, t, cat="sched", scans=probes)
    finally:
        if collecting:
            gc.enable()

    finish_time = np.array(finish)
    executed = np.array(executed_cost, dtype=float)
    ops = np.array(queue_ops, dtype=np.int64)
    if stats is not None:
        stats.clock[:] = np.maximum(stats.clock, finish_time)
        stats.comp_time += executed
        # queue atomics reach the flight recorder once: each rank's
        # initial enqueue on ``queue``, every later one (probes, victim
        # updates, orphan pops) on ``steal_task``
        stats.flight.record_ops(CH_QUEUE, np.ones(nproc, dtype=np.int64))
        if (ops > 1).any():
            stats.flight.record_ops(CH_STEAL_TASK, ops - 1)

    return StealingOutcome(
        finish_time=finish_time,
        executed_cost=executed,
        executed_tasks=np.array(executed_tasks, dtype=np.int64),
        steals=steals,
        queue_ops=ops,
        dead_ranks=[p for p in range(nproc) if dead[p]],
        recoveries=recoveries,
        reexecuted_tasks=reexecuted,
        executed_history=history if track_faults else None,
        blocked_time=np.array(blocked_time, dtype=float),
        initial_cost=np.array(initial_cost, dtype=float),
    )
