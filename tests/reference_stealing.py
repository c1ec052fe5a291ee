"""Reference work-stealing scheduler: the per-victim Python scan.

This is the list-and-loop implementation that
:func:`repro.fock.stealing.run_work_stealing` replaced with flat per-rank
state and a pruned candidate-list victim search.  It is kept as the
oracle of the differential tests in ``tests/test_schedulers.py``: an
idle rank probes ``victim_scan_order`` one queue at a time
(``stealable_after`` + ``bisect`` + one ``record_op`` per probe), queues
are Python lists, every task span is one ``tracer.virtual_span`` call,
and each new (thief, victim) pair's D copy is charged by a
``steal_cost`` closure, as the callers did before the scheduler owned
that rule.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable

import numpy as np

from repro.fock.stealing import (
    _DEATH,
    RecoveryRecord,
    StealingOutcome,
    StealRecord,
)
from repro.obs import Tracer, get_tracer
from repro.obs.flight import CH_QUEUE, CH_STEAL_TASK
from repro.runtime.event import EventQueue
from repro.runtime.faults import FaultState
from repro.runtime.network import CommStats


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


class _ProcState:
    __slots__ = ("tasks", "costs", "cum", "start", "active", "factor")

    def __init__(self) -> None:
        self.tasks: list[Any] = []
        self.costs: list[float] = []
        self.cum: list[float] = []
        self.start = 0.0
        self.active = False
        self.factor = 1.0

    def begin(
        self, tasks: list, costs: list[float], start: float, factor: float = 1.0
    ) -> float:
        """Start a batch; ``costs`` are *base* costs, ``factor`` is the
        executing rank's straggler slowdown (stolen tasks run at the
        thief's rate, not the victim's)."""
        self.tasks = tasks
        self.costs = costs
        self.cum = list(np.cumsum(costs) * factor) if costs else []
        self.start = start
        self.active = bool(tasks)
        self.factor = factor
        return start + (self.cum[-1] if self.cum else 0.0)

    def completed_by(self, t: float) -> int:
        """Number of queued tasks fully executed by time t."""
        if not self.active:
            return len(self.tasks)
        return bisect_right(self.cum, t - self.start + 1e-15)

    def stealable_after(self, t: float) -> int:
        """Index from which tasks can still be stolen at time t.

        The task in flight at time t cannot be stolen.
        """
        k = self.completed_by(t)
        return min(k + 1, len(self.tasks))


def reference_work_stealing(
    queues: list[list[Any]],
    cost_of: Callable[[Any], float],
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
    """Same contract as :func:`repro.fock.stealing.run_work_stealing`."""
    if tracer is None:
        tracer = get_tracer()
    prow, pcol = grid
    nproc = prow * pcol
    if len(queues) != nproc:
        raise ValueError(f"{len(queues)} queues for a {prow}x{pcol} grid")
    if not 0.0 < steal_fraction <= 1.0:
        raise ValueError("steal_fraction must be in (0, 1]")

    states = [_ProcState() for _ in range(nproc)]
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
    scan_orders = [victim_scan_order(p, prow, pcol) for p in range(nproc)]
    done = np.zeros(nproc, dtype=bool)
    dead = np.zeros(nproc, dtype=bool)

    track_faults = faults is not None
    #: per-rank (task, base_cost) execution history, for death recovery
    history: list[list[tuple[Any, float]]] = [[] for _ in range(nproc)]
    #: (task, base_cost, was_executed) blocks orphaned by rank deaths
    orphans: list[tuple[Any, float, bool]] = []
    recoveries: list[RecoveryRecord] = []
    reexecuted = 0
    seen_victims: set[tuple[int, int]] = set()

    def steal_cost(thief: int, victim: int) -> float:
        # copy the victim's D buffer (Sec III-F), once per new victim
        if (thief, victim) in seen_victims:
            return 0.0
        seen_victims.add((thief, victim))
        return stats.charge_steal(thief, d_copy_bytes(victim), ncalls=1)

    def factor_of(p: int) -> float:
        return faults.compute_factor(p) if faults is not None else 1.0

    for p in range(nproc):
        start = float(stats.clock[p]) if stats is not None else 0.0
        costs = [cost_of(t) for t in queues[p]]
        initial_cost[p] = float(sum(costs))
        end = states[p].begin(list(queues[p]), costs, start, factor_of(p))
        queue_ops[p] += 1  # one atomic enqueue of the whole initial block
        if stats is not None:
            stats.flight.record_op(p, CH_QUEUE)
        events.schedule(end, p)
    if faults is not None:
        for p, t_death in faults.plan.deaths.items():
            if 0 <= p < nproc:
                events.schedule(float(t_death), (_DEATH, p))

    def commit(proc: int, tasks: list[Any], costs: list[float], factor: float) -> None:
        executed_cost[proc] += float(sum(costs)) * factor
        executed_tasks[proc] += len(tasks)
        if track_faults:
            history[proc].extend(zip(tasks, costs))
        if on_task is not None:
            for t in tasks:
                on_task(proc, t)

    def adopt_orphans(p: int, t: float) -> bool:
        """Rank ``p`` takes a block from the orphan pool at time ``t``."""
        nonlocal reexecuted
        if not orphans or dead[p]:
            return False
        n = max(1, int(len(orphans) * steal_fraction))
        take = orphans[-n:]
        del orphans[-n:]
        tasks = [x[0] for x in take]
        costs = [x[1] for x in take]
        nre = sum(1 for x in take if x[2])
        reexecuted += nre
        queue_ops[p] += 1  # atomic pop from the recovery pool
        if stats is not None:
            stats.flight.record_op(p, CH_STEAL_TASK)
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
        end = states[p].begin(tasks, costs, t, factor_of(p))
        events.schedule(end, p)
        recoveries.append(RecoveryRecord(t, p, len(take), nre))
        tracer.virtual_instant(
            "recover", p, t, cat="sched", ntasks=len(take), reexecuted=nre
        )
        return True

    def kill(p: int, t: float) -> None:
        """Execute rank ``p``'s death at virtual time ``t``."""
        st = states[p]
        dead[p] = True
        # everything this rank executed since its last (never-happened)
        # flush is lost with its memory; queued work is lost with it too
        lost: list[tuple[Any, float, bool]] = [
            (task, cost, True) for task, cost in history[p]
        ]
        history[p].clear()
        if st.active:
            k = st.completed_by(t)
            for i, (task, cost) in enumerate(zip(st.tasks, st.costs)):
                lost.append((task, cost, i < k))
            # the rank did burn real time on the partial batch
            burned = min(max(t - st.start, 0.0), st.cum[-1] if st.cum else 0.0)
            executed_cost[p] += burned
            st.active = False
            st.tasks, st.costs, st.cum = [], [], []
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
        t, key = ev
        if isinstance(key, tuple) and key[0] == _DEATH:
            kill(key[1], t)
            continue
        p = key
        st = states[p]
        # the whole (possibly shrunk) batch has run to completion
        commit(p, st.tasks, st.costs, st.factor)
        if tracer.enabled and st.tasks:
            tracer.virtual_span(
                "batch", p, st.start, t, cat="sched", ntasks=len(st.tasks)
            )
            prev = 0.0
            for task, cum in zip(st.tasks, st.cum):
                end = float(cum)
                tracer.virtual_span(
                    "task", p, st.start + prev, st.start + end,
                    cat="task", task=str(task),
                )
                prev = end
        st.active = False
        st.tasks, st.costs, st.cum = [], [], []

        # orphaned work outranks stealing: it is the only copy left
        if adopt_orphans(p, t):
            continue

        stolen = False
        probes = 0
        if enable_stealing:
            order = scan_orders[p]
            if rng is not None:
                order = [order[i] for i in rng.permutation(len(order))]
            for victim in order:
                queue_ops[p] += 1  # probe the victim's queue
                if stats is not None:
                    stats.flight.record_op(p, CH_STEAL_TASK)
                probes += 1
                vs = states[victim]
                if dead[victim] or not vs.active:
                    # a dead victim's queue no longer exists: the probe
                    # comes back empty and the thief moves on
                    continue
                lo = vs.stealable_after(t)
                avail = len(vs.tasks) - lo
                if avail < max(1, min_steal):
                    continue
                nsteal = max(1, int(avail * steal_fraction))
                cut = len(vs.tasks) - nsteal
                stolen_tasks = vs.tasks[cut:]
                stolen_costs = vs.costs[cut:]
                # shrink the victim in place and reschedule its finish
                vs.tasks = vs.tasks[:cut]
                vs.costs = vs.costs[:cut]
                vs.cum = vs.cum[:cut]
                queue_ops[victim] += 1  # atomic update of victim queue
                if stats is not None:
                    stats.flight.record_op(victim, CH_STEAL_TASK)
                new_victim_end = vs.start + (vs.cum[-1] if vs.cum else 0.0)
                events.schedule(max(new_victim_end, t), victim)
                if on_steal is not None:
                    on_steal(p, victim)
                # the thief pays for copying the victim's D buffer
                dt = steal_cost(p, victim) if d_copy_bytes is not None else 0.0
                start = t + dt
                if stats is not None and dt > 0:
                    stats.comm_time[p] += dt
                if tracer.enabled and dt > 0:
                    tracer.virtual_span(
                        "steal_copy", p, t, start, cat="comm", victim=victim
                    )
                end = states[p].begin(stolen_tasks, stolen_costs, start, factor_of(p))
                events.schedule(end, p)
                steals.append(StealRecord(t, p, victim, len(stolen_tasks)))
                tracer.virtual_instant(
                    "steal", p, t, cat="sched",
                    victim=victim, ntasks=len(stolen_tasks), scans=probes,
                )
                stolen = True
                break
        if not stolen:
            done[p] = True
            finish[p] = t
            if tracer.enabled and enable_stealing:
                tracer.virtual_instant("idle", p, t, cat="sched", scans=probes)

    if stats is not None:
        stats.clock[:] = np.maximum(stats.clock, finish)
        stats.comp_time += executed_cost

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
