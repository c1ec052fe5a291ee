"""Real host-parallel Fock construction with multiprocessing.

The simulated runtime demonstrates the algorithm at paper scale; this
module demonstrates it *actually running in parallel* on the host: the
same shell-pair task machinery, with worker processes computing real
ERIs and a final J/K reduction.  Tasks are cost-sorted (vectorized
quartet cost matrix) and dealt into more chunks than workers, consumed
via ``imap_unordered`` for dynamic balancing -- the host-pool analogue
of the paper's work-stealing over a static partition.  Useful both as a
genuine speedup path for small molecules and as an end-to-end sanity
check that the task decomposition parallelizes cleanly.

Workers inherit the engine through ``fork`` (no per-task pickling); each
worker accumulates a private J/K pair over its task list, and partial
results are summed in the parent.

Crash tolerance: every live pool is registered in a module-level set
while in use, so a process that is told to die (the service supervisor's
per-job SIGTERM, a clean worker shutdown) can call
:func:`shutdown_active_pools` from its signal handler and terminate the
child processes instead of leaking them -- the default SIGTERM
disposition would kill the parent and orphan the pool.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading

import numpy as np

from repro.fock.cost import quartet_cost_matrix
from repro.fock.screening_map import ScreeningMap
from repro.fock.tasks import enumerate_task_quartets
from repro.integrals.class_batch import jk_for_quartets
from repro.integrals.engine import ERIEngine
from repro.obs import get_tracer
from repro.scf.fock import orbit_images

_WORKER_STATE: dict = {}

#: pools currently executing a map, registered for signal-time teardown
_ACTIVE_POOLS: set = set()
_ACTIVE_POOLS_LOCK = threading.Lock()


def _register_pool(pool) -> None:
    with _ACTIVE_POOLS_LOCK:
        _ACTIVE_POOLS.add(pool)


def _unregister_pool(pool) -> None:
    with _ACTIVE_POOLS_LOCK:
        _ACTIVE_POOLS.discard(pool)


def active_pool_count() -> int:
    """Live registered pools (0 outside a ``parallel_build_jk`` call)."""
    with _ACTIVE_POOLS_LOCK:
        return len(_ACTIVE_POOLS)


def shutdown_active_pools() -> int:
    """Terminate and join every registered pool; returns how many.

    Safe to call from a signal handler: a job that is timed out with
    SIGTERM tears down its child processes instead of leaking them to
    init.  Idempotent -- terminating an already-closed pool is a no-op.
    """
    with _ACTIVE_POOLS_LOCK:
        pools = list(_ACTIVE_POOLS)
        _ACTIVE_POOLS.clear()
    for pool in pools:
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - best effort at shutdown
            pass
    return len(pools)


def _init_worker(engine: ERIEngine, screen: ScreeningMap, density: np.ndarray) -> None:
    _WORKER_STATE["engine"] = engine
    _WORKER_STATE["screen"] = screen
    _WORKER_STATE["density"] = density


def _run_tasks(tasks: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    engine: ERIEngine = _WORKER_STATE["engine"]
    screen: ScreeningMap = _WORKER_STATE["screen"]
    density: np.ndarray = _WORKER_STATE["density"]
    basis = engine.basis
    quartets = [
        qt
        for m, nn in tasks
        for qt in enumerate_task_quartets(screen, m, nn)
    ]
    if (
        getattr(engine, "supports_class_batched", False)
        and getattr(engine, "scf_faults", None) is None
        and quartets
    ):
        # the worker's whole task chunk as one class-batched sweep; the
        # contraction's orbit weights hold for the non-canonical
        # (M, P, N, Q) task tuples directly
        return jk_for_quartets(engine, density, quartets)
    n = basis.nbf
    j = np.zeros((n, n))
    k = np.zeros((n, n))
    slices = basis.shell_slices
    for (mm, pp, nq, qq) in quartets:
        block = engine.quartet(mm, pp, nq, qq)
        for (a, b, c, d), blk in orbit_images((mm, pp, nq, qq), block):
            sa, sb, sc, sd = slices[a], slices[b], slices[c], slices[d]
            j[sa, sb] += np.einsum("abcd,cd->ab", blk, density[sc, sd])
            k[sa, sc] += np.einsum("abcd,bd->ac", blk, density[sb, sd])
    return j, k


def _cost_sorted_chunks(
    screen: ScreeningMap, nchunks: int
) -> list[list[tuple[int, int]]]:
    """Shell-pair tasks dealt into ``nchunks`` cost-balanced chunks.

    Tasks are sorted by descending estimated ERI count and dealt
    round-robin, so every chunk mixes expensive and cheap tasks and no
    single chunk concentrates the hot shell pairs the way contiguous
    static blocks do.
    """
    costs = quartet_cost_matrix(screen)
    ns = screen.nshells
    tasks = [(m, n) for m in range(ns) for n in range(ns)]
    tasks.sort(key=lambda t: -costs.eris[t[0], t[1]])
    chunks: list[list[tuple[int, int]]] = [[] for _ in range(nchunks)]
    for i, task in enumerate(tasks):
        chunks[i % nchunks].append(task)
    return [c for c in chunks if c]


def parallel_build_jk(
    engine: ERIEngine,
    density: np.ndarray,
    tau: float = 1e-11,
    nworkers: int | None = None,
    screen: ScreeningMap | None = None,
    chunks_per_worker: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """J and K via a pool of worker processes over shell-pair tasks.

    Tasks are cost-sorted and dealt into ``chunks_per_worker * nworkers``
    chunks consumed with ``imap_unordered``, so idle workers pick up
    remaining chunks dynamically instead of the pool being gated on the
    most expensive static block; partial J/K results are reduced as they
    arrive.

    Parent-side phases (screening, partition, the pool map itself, and
    the J/K reduction) are wall-clock spans on the active tracer; worker
    interiors are separate processes and stay untraced.
    """
    tracer = get_tracer()
    basis = engine.basis
    with tracer.span(
        "parallel_build_jk", cat="parallel", nworkers=nworkers or 0
    ) as top:
        if screen is None:
            with tracer.span("screening", cat="parallel"):
                screen = ScreeningMap(basis, engine.schwarz(), tau)
        if nworkers is None:
            nworkers = max(1, min(os.cpu_count() or 1, 8))
        top["nworkers"] = nworkers
        with tracer.span("partition", cat="parallel"):
            chunks = _cost_sorted_chunks(
                screen, max(1, nworkers * chunks_per_worker)
            )
        top["ntasks"] = sum(len(c) for c in chunks)

        if nworkers == 1:
            with tracer.span("pool_map", cat="parallel", nworkers=1):
                _init_worker(engine, screen, density)
                j, k = _run_tasks([t for chunk in chunks for t in chunk])
            return j, k

        n = basis.nbf
        j = np.zeros((n, n))
        k = np.zeros((n, n))
        with tracer.span("pool_map", cat="parallel", nworkers=nworkers):
            ctx = mp.get_context("fork")
            with ctx.Pool(
                processes=nworkers,
                initializer=_init_worker,
                initargs=(engine, screen, density),
            ) as pool:
                _register_pool(pool)
                try:
                    # reduce partials as they arrive, in completion order
                    for jp, kp in pool.imap_unordered(_run_tasks, chunks):
                        j += jp
                        k += kp
                finally:
                    _unregister_pool(pool)
        return j, k


def parallel_fock_matrix(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    tau: float = 1e-11,
    nworkers: int | None = None,
) -> np.ndarray:
    """F = Hcore + 2J - K computed with real host parallelism."""
    j, k = parallel_build_jk(engine, density, tau, nworkers)
    return hcore + 2.0 * j - k
