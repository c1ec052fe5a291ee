"""Reference centralized scheduler and NWChem task arrays.

The implementations that ``repro.fock.centralized.run_centralized`` and
``repro.fock.nwchem_cost.build_nwchem_task_arrays`` replaced, kept
verbatim as the oracles of the differential tests in
``tests/test_schedulers.py`` and ``tests/test_nwchem_cost.py``:

* :func:`reference_centralized` pops a heap once per task and charges
  every operation as it happens through the scalar API
  (:meth:`SharedCounter.read_inc` -> ``comm_of`` -> ``charge_comm`` ->
  ``charge_compute``), one ``FlightRecorder.record`` per operation; its
  hooks also run the numeric NWChem build of ``tests/reference_nwchem.py``;
* :func:`reference_task_arrays` builds the per-task estimate and scales
  it to one machine in a single pass, caching nothing.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

import numpy as np

from repro.fock.centralized import CentralizedOutcome
from repro.fock.nwchem_cost import CHUNK, NBUCKETS, NWChemTaskArrays, atom_sigma
from repro.fock.screening_map import ScreeningMap
from repro.obs.flight import CH_COUNTER
from repro.runtime.ga import counter_service
from repro.runtime.network import CommStats


class SharedCounter:
    """The Global Arrays ``NGA_Read_inc`` atomic counter.

    NWChem's centralized dynamic scheduler is a single shared counter
    that every process hits once per task; each access is atomic and
    serializes at the owning process (Sec IV-C discusses the resulting
    scheduler overhead: ~112k accesses for C100H202 at 3888 cores vs 349
    per-queue accesses for GTFock's distributed queues).
    """

    def __init__(self, stats: CommStats, owner: int = 0):
        self.stats = stats
        self.owner = owner
        self.value = 0
        self.accesses = 0
        #: time at which the counter's owner is next free (serialization)
        self.server_free = 0.0

    def read_inc(self, proc: int) -> int:
        """Atomically fetch-and-increment; models queueing at the owner.

        The caller pays a round-trip latency plus any queueing delay
        behind other processes' outstanding increments.
        """
        stats = self.stats
        stats._check(proc)
        cfg = stats.config
        dt, self.server_free = counter_service(
            stats.clock[proc], self.server_free, cfg.latency, cfg.queue_service
        )
        self.accesses += 1
        stats.remote_calls[proc] += 1
        stats.clock[proc] += dt
        stats.comm_time[proc] += dt
        stats.flight.record(proc, CH_COUNTER, 0, 1, dt)
        out = self.value
        self.value += 1
        return out


def reference_centralized(
    tasks: list[Any],
    nproc: int,
    stats: CommStats,
    cost_of: Callable[[Any], float],
    comm_of: Callable[[int, Any], None] | None = None,
    on_task: Callable[[int, Any], None] | None = None,
) -> CentralizedOutcome:
    """Execute a global ordered task list through a centralized counter.

    Parameters
    ----------
    tasks:
        The global dispatch-ordered task list (Algorithm 2's id space).
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
    """
    counter = SharedCounter(stats)
    executed_cost = np.zeros(nproc)
    executed_tasks = np.zeros(nproc, dtype=np.int64)
    ntasks = len(tasks)

    # process with smallest clock pulls next; heap of (clock, proc)
    heap = [(float(stats.clock[p]), p) for p in range(nproc)]
    heapq.heapify(heap)
    finish = np.array([float(stats.clock[p]) for p in range(nproc)])
    while heap:
        _, p = heapq.heappop(heap)
        task_id = counter.read_inc(p)
        if task_id >= ntasks:
            finish[p] = float(stats.clock[p])
            continue  # this process is done; do not re-push
        task = tasks[task_id]
        if comm_of is not None:
            comm_of(p, task)
        c = cost_of(task)
        stats.charge_compute(p, c)
        executed_cost[p] += c
        executed_tasks[p] += 1
        if on_task is not None:
            on_task(p, task)
        heapq.heappush(heap, (float(stats.clock[p]), p))

    return CentralizedOutcome(
        finish_time=finish,
        executed_cost=executed_cost,
        executed_tasks=executed_tasks,
        counter_accesses=counter.accesses,
    )


def _atom_pair_buckets(
    screen: ScreeningMap, pairs: np.ndarray, nbuckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket summaries (values, weights) per canonical atom pair.

    Values are per-bucket maxima (conservative for the screening test),
    weights are summed ERI weights ``s_M s_N`` over the bucket's shell
    pairs.
    """
    basis = screen.basis
    sizes = basis.shell_sizes().astype(float)
    groups = basis.atom_shell_lists()
    sigma = screen.sigma
    npairs = len(pairs)
    v = np.zeros((npairs, nbuckets))
    w = np.zeros((npairs, nbuckets))
    for idx, (a, b) in enumerate(pairs):
        sa = np.asarray(groups[a], dtype=int)
        sb = np.asarray(groups[b], dtype=int)
        vals = sigma[np.ix_(sa, sb)].ravel()
        wts = np.outer(sizes[sa], sizes[sb]).ravel()
        order = np.argsort(vals)[::-1]
        vals, wts = vals[order], wts[order]
        cuts = np.linspace(0, vals.size, nbuckets + 1).astype(int)
        for b_i in range(nbuckets):
            lo, hi = cuts[b_i], cuts[b_i + 1]
            if hi > lo:
                v[idx, b_i] = vals[lo]  # bucket max (descending order)
                w[idx, b_i] = wts[lo:hi].sum()
    return v, w


def reference_task_arrays(
    screen: ScreeningMap,
    total_eris: float,
    t_int: float,
    task_overhead: float,
    element_size: int = 8,
) -> NWChemTaskArrays:
    """All NWChem tasks with vectorized cost/communication estimates.

    Parameters
    ----------
    screen:
        Screening structure of the (atom-ordered) basis.
    total_eris:
        Exact total unique ERI count to normalize task costs to.
    t_int:
        Seconds per ERI for this engine (Table V).
    task_overhead:
        Fixed per-task bookkeeping seconds.
    """
    chunk, nbuckets = CHUNK, NBUCKETS
    basis = screen.basis
    sig_at = atom_sigma(screen)
    natoms = sig_at.shape[0]
    tau = screen.tau

    # canonical significant atom pairs, ordered (the global task order)
    iu, ju = np.tril_indices(natoms)  # I >= J
    vals_at = sig_at[iu, ju]
    keep = vals_at * float(sig_at.max()) > tau
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    pvals = vals_at[keep]
    npairs = len(pairs)
    if npairs == 0:
        return NWChemTaskArrays(
            cost=np.zeros(0),
            comm_bytes=np.zeros(0),
            comm_calls=np.zeros(0, dtype=np.int64),
            ntasks=0,
            total_eris=total_eris,
        )

    v, w = _atom_pair_buckets(screen, pairs, nbuckets)

    # atom function sizes for communication volumes
    offs = basis.offsets
    atom_of = basis.atom_of_shell
    fsizes = np.zeros(natoms)
    for s in range(basis.nshells):
        fsizes[atom_of[s]] += offs[s + 1] - offs[s]

    # tasks: for bra pair index i (in canonical order), ket pair indices
    # 0..i chunked by `chunk`.  Expand all (bra, ket) rows.
    bra_rows: list[np.ndarray] = []
    ket_rows: list[np.ndarray] = []
    task_of_row: list[np.ndarray] = []
    task_base = 0
    ntasks = 0
    for i in range(npairs):
        nket = i + 1
        ntask_i = (nket + chunk - 1) // chunk
        kets = np.arange(nket)
        bra_rows.append(np.full(nket, i, dtype=np.int64))
        ket_rows.append(kets)
        task_of_row.append(task_base + kets // chunk)
        task_base += ntask_i
        ntasks += ntask_i
    bra = np.concatenate(bra_rows)
    ket = np.concatenate(ket_rows)
    row_task = np.concatenate(task_of_row)

    # atom-level screening of each quartet row
    survive = pvals[bra] * pvals[ket] > tau

    # bucket-product ERI estimate per surviving row, chunked for memory
    cost_rows = np.zeros(bra.size)
    idx = np.flatnonzero(survive)
    step = 200_000
    for s0 in range(0, idx.size, step):
        sel = idx[s0 : s0 + step]
        vb = v[bra[sel]][:, :, None] * v[ket[sel]][:, None, :]  # careful: see below
        wb = w[bra[sel]][:, :, None] * w[ket[sel]][:, None, :]
        cost_rows[sel] = np.sum(wb * (vb > tau), axis=(1, 2))

    # communication: 6 D-block gets + 6 F-block accs per surviving quartet
    fi, fj = fsizes[pairs[:, 0]], fsizes[pairs[:, 1]]
    blk6 = (
        fi[bra] * fj[bra]
        + fi[ket] * fj[ket]
        + fi[bra] * fi[ket]
        + fj[bra] * fj[ket]
        + fi[bra] * fj[ket]
        + fj[bra] * fi[ket]
    )
    bytes_rows = np.where(survive, 2.0 * blk6 * element_size, 0.0)
    calls_rows = np.where(survive, 12, 0)

    cost = np.bincount(row_task, weights=cost_rows, minlength=ntasks)
    comm_bytes = np.bincount(row_task, weights=bytes_rows, minlength=ntasks)
    comm_calls = np.bincount(row_task, weights=calls_rows, minlength=ntasks).astype(
        np.int64
    )

    # normalize to the exact total ERI work, then convert to seconds
    est_total = float(cost.sum())
    scale = (total_eris / est_total) if est_total > 0 else 0.0
    cost = cost * scale * t_int + task_overhead
    return NWChemTaskArrays(
        cost=cost,
        comm_bytes=comm_bytes,
        comm_calls=comm_calls,
        ntasks=ntasks,
        total_eris=total_eris,
    )
