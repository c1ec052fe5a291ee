"""Centralized dynamic scheduler simulation (NWChem's model, Sec II-F).

All processes pull task ids from one shared atomic counter
(``NGA_Read_inc``).  Every access serializes at the counter's owner, so
with large p the scheduler itself becomes a bottleneck -- one of the
three overhead sources the paper identifies (Sec IV-C: 112k counter
accesses for C100H202 at 3888 cores).

Event-driven: the process with the smallest virtual clock acts next;
the counter's queueing delay comes from
:func:`repro.runtime.ga.counter_service`.  The dispatch order is
resolved over plain floats; what each access, fetch and task cost is
buffered and charged to :class:`CommStats` / the flight recorder in
event-ordered batches (see "Simulator hot path" in
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.fock.nwchem_cost import NWChemTaskArrays
from repro.obs.flight import CH_COUNTER, CH_TASK_GET, CHANNELS
from repro.runtime.ga import counter_service
from repro.runtime.network import CommStats

#: counter accesses resolved between two accounting flushes: bounds the
#: pending buffer (and the per-chunk cost lists) whatever the task count
FLUSH_EVERY = 16384

#: channels of one buffered access, in event order: the counter hit,
#: then the fetches of the task it handed out
_ACCESS_CHANNELS = np.array(
    [CHANNELS.index(CH_COUNTER), CHANNELS.index(CH_TASK_GET)]
)


@dataclass
class CentralizedOutcome:
    finish_time: np.ndarray
    executed_cost: np.ndarray
    executed_tasks: np.ndarray
    counter_accesses: int

    @property
    def makespan(self) -> float:
        return float(self.finish_time.max())

    def load_balance_ratio(self) -> float:
        avg = float(self.finish_time.mean())
        return float(self.finish_time.max()) / avg if avg > 0 else 1.0


def run_centralized(
    tasks: Sequence[Any] | NWChemTaskArrays,
    nproc: int,
    stats: CommStats,
    cost_of: Callable[[Any], float] | None = None,
    comm_of: Callable[[int, Any], None] | None = None,
    on_task: Callable[[int, Any], None] | None = None,
) -> CentralizedOutcome:
    """Execute a global ordered task list through a centralized counter.

    Parameters
    ----------
    tasks:
        The global dispatch-ordered task list (Algorithm 2's id space),
        costed through ``cost_of`` -- or a timing simulation's per-task
        arrays: ``cost`` is the compute time, ``comm_bytes`` /
        ``comm_calls`` are charged as remote ``task_get`` traffic before
        the task runs, and hooks see the task's index.
    nproc:
        Number of pulling processes.
    stats:
        Accounting; clocks may be pre-charged and are advanced in place.
    cost_of:
        Compute cost (seconds) of one task on one process.
    comm_of:
        Per-task communication hook: ``comm_of(proc, task)`` should charge
        the task's D fetches / F updates to ``stats`` (and, in numeric
        mode, actually move the data).
    on_task:
        Numeric-mode execution hook.

    Accounting is flushed every :data:`FLUSH_EVERY` accesses, at the
    end, and before any hook runs: a hook sees the clocks and counters
    it would see if every operation were charged as it happens, and
    whatever it charges is picked up before the next pull.
    """
    cfg = stats.config
    latency, service = cfg.latency, cfg.queue_service
    if isinstance(tasks, NWChemTaskArrays):
        if stats.faults is not None:
            raise ValueError(
                "per-task arrays resolve their fetch times up front and "
                "cannot draw transient faults; charge them from comm_of"
            )
        ntasks, cost = tasks.ntasks, tasks.cost
        nbytes, calls = tasks.comm_bytes, tasks.comm_calls
        tasks = range(ntasks)
    else:
        ntasks = len(tasks)
        cost = np.fromiter(map(cost_of, tasks), dtype=float, count=ntasks)
        nbytes, calls = np.zeros(ntasks), np.zeros(ntasks, dtype=np.int64)
    # every process pulls once more after the last task, finds the
    # counter exhausted and stops: nproc trailing accesses that hand
    # out nothing (zero cost, zero fetch)
    cost, nbytes, calls = (
        np.concatenate((a, np.zeros(nproc, dtype=a.dtype)))
        for a in (cost, nbytes, calls)
    )
    fetch_dt = np.where(calls > 0, cfg.transfer_time(nbytes, calls), 0.0)
    hooked = comm_of is not None or on_task is not None
    executed_cost = np.zeros(nproc)
    executed_tasks = np.zeros(nproc, dtype=np.int64)

    # process with smallest clock pulls next; heap of (clock, proc)
    clock = stats.clock[:nproc].tolist()
    heap = [(t, p) for p, t in enumerate(clock)]
    heapq.heapify(heap)
    server_free = 0.0
    #: buffered accesses: puller, seconds charged
    acc_p: list[int] = []
    acc_dt: list[float] = []
    buffer_p, buffer_dt = acc_p.append, acc_dt.append
    replace_top = heapq.heapreplace

    def flush(first: int, costs: list[float] | None = None) -> None:
        """Charge the buffered accesses -- the earliest pulled task
        ``first`` -- and publish the clocks; ``costs`` are their tasks'
        compute seconds unless a hook had those charged one by one."""
        procs = np.array(acc_p, dtype=np.intp)
        dt = np.array(acc_dt)
        n = procs.size
        sl = slice(first, first + n)
        fetch = fetch_dt[sl]
        # event order: each counter hit, then the fetches of its task
        keep = np.column_stack((np.ones(n, dtype=bool), calls[sl] > 0)).ravel()

        def stream(access, task):
            return np.column_stack((access, task)).ravel()[keep]

        stats.charge_comm_batch(
            np.repeat(procs, 2)[keep],
            stream(np.zeros(n), nbytes[sl]),
            stream(np.ones(n, dtype=np.int64), calls[sl]),
            channel=np.tile(_ACCESS_CHANNELS, n)[keep],
            dt=stream(dt, fetch),
        )
        if costs is not None:
            costs = np.array(costs)
            if costs.min() < 0:
                raise ValueError("negative compute time")
            np.add.at(stats.comp_time, procs, costs)
            np.add.at(executed_cost, procs, costs)
            np.add.at(executed_tasks, procs[: max(ntasks - first, 0)], 1)
        acc_p.clear()
        acc_dt.clear()
        stats.clock[:nproc] = clock

    for lo in range(0, ntasks + nproc, FLUSH_EVERY):
        costs = cost[lo : lo + FLUSH_EVERY].tolist()
        fetches = fetch_dt[lo : lo + FLUSH_EVERY].tolist()
        for tid, (c, fetch) in enumerate(zip(costs, fetches), lo):
            p = heap[0][1]
            t = clock[p]
            dt, server_free = counter_service(t, server_free, latency, service)
            t += dt
            buffer_p(p)
            buffer_dt(dt)
            if tid >= ntasks:  # counter exhausted: this process stops
                clock[p] = t
                heapq.heappop(heap)
                continue
            t += fetch
            if hooked:
                clock[p] = t
                flush(tid)
                if comm_of is not None:
                    comm_of(p, tasks[tid])
                stats.charge_compute(p, c)
                executed_cost[p] += c
                executed_tasks[p] += 1
                if on_task is not None:
                    on_task(p, tasks[tid])
                clock = stats.clock[:nproc].tolist()
                t = clock[p]
            else:
                t += c
                clock[p] = t
            replace_top(heap, (t, p))
        if acc_p:
            flush(lo + len(costs) - len(acc_p), None if hooked else costs)

    return CentralizedOutcome(
        finish_time=np.array(clock),
        executed_cost=executed_cost,
        executed_tasks=executed_tasks,
        counter_accesses=ntasks + nproc,
    )
