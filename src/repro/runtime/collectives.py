"""Collective-operation cost models for the simulated runtime.

Global Arrays programs still need a few collectives (barriers around the
Fock phase, allreduce for traces/convergence checks, broadcast of the
converged density).  These charge standard tree/butterfly alpha-beta
costs to every process and synchronize clocks where semantics require.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.flight import (
    CH_ALLREDUCE,
    CH_BARRIER,
    CH_BROADCAST,
    CH_REDUCE_SCATTER,
)
from repro.runtime.network import CommStats


def _rounds(nproc: int) -> int:
    return max(1, int(math.ceil(math.log2(max(nproc, 2)))))


def _charge_all(stats: CommStats, nbytes, ncalls, channel: str) -> float:
    """Charge every rank one collective step, then synchronize clocks."""
    stats.charge_comm_batch(
        np.arange(stats.nproc), nbytes, ncalls,
        remote=stats.nproc > 1, channel=channel,
    )
    return stats.barrier()


def barrier(stats: CommStats) -> float:
    """Dissemination barrier: log2(p) latency rounds, then sync clocks."""
    return _charge_all(stats, 0, _rounds(stats.nproc), CH_BARRIER)


def allreduce(stats: CommStats, nbytes: float) -> float:
    """Recursive-doubling allreduce of ``nbytes`` per process.

    Each round moves the payload once; clocks synchronize at the end
    (every process holds the result).
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    r = _rounds(stats.nproc)
    return _charge_all(stats, nbytes * r, r, CH_ALLREDUCE)


def broadcast(stats: CommStats, nbytes: float, root: int = 0) -> float:
    """Binomial-tree broadcast from ``root``.

    Non-root processes cannot finish before the root's data exists, so
    all clocks are raised to the completion time.
    """
    if not 0 <= root < stats.nproc:
        raise IndexError(f"root {root} out of range")
    ncalls = np.ones(stats.nproc, dtype=np.int64)
    ncalls[root] = _rounds(stats.nproc)
    return _charge_all(stats, nbytes, ncalls, CH_BROADCAST)


def reduce_scatter(stats: CommStats, nbytes_total: float) -> float:
    """Pairwise-exchange reduce-scatter of a ``nbytes_total`` buffer.

    Volume per process is ~``nbytes_total * (p-1)/p``; used to model the
    final distributed-F assembly alternative to one-sided accumulates.
    """
    if nbytes_total < 0:
        raise ValueError("nbytes_total must be >= 0")
    p = stats.nproc
    share = nbytes_total * (p - 1) / max(p, 1)
    return _charge_all(stats, share, max(p - 1, 1), CH_REDUCE_SCATTER)
