"""Distributed canonical purification (Sec IV-E, Table IX).

Runs the Palser-Manolopoulos iteration of
:mod:`repro.scf.purification` -- the serial reference -- on 2-D blocked
:class:`~repro.runtime.ga.GlobalArray` matrices: the two cubic-step
matrix multiplies are SUMMA multiplies, the traces steering the
polynomial choice are distributed traces, and the per-block linear
combination plus the symmetrizing transpose-average are charged to each
owner's virtual clock.  The density it converges to is the serial one
(same math, same trajectory), so ``purify_distributed`` is verified
against :func:`repro.scf.purification.purify` element by element.

:func:`purification_time_model` is the matching cost model at paper
scale, built from :func:`~repro.dist.summa.summa_time_model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.obs.flight import CH_ALLREDUCE, CH_GA
from repro.runtime.ga import GlobalArray, block_bounds, grid_shape
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats
from repro.scf.purification import MAX_ITER, TOL, initial_density
from repro.util.validation import check_symmetric

from repro.dist.summa import (
    DGEMM_SECONDS_PER_FLOP,
    distributed_trace,
    summa_multiply,
    summa_time_model,
)


@dataclass
class DistributedPurificationResult:
    """Converged density plus the run's full communication accounting."""

    #: purified density in the orthogonal basis (trace = nocc)
    density: np.ndarray
    iterations: int
    converged: bool
    #: per-iteration idempotency error ||D^2 - D||_F
    history: list[float] = field(default_factory=list)
    #: makespan: the slowest simulated process clock (seconds)
    time: float = 0.0
    stats: CommStats | None = None


def _distributed_fro_norm(
    a: GlobalArray, b: GlobalArray, stats: CommStats, config: MachineConfig
) -> float:
    """||A - B||_F via local partial sums and a scalar allreduce."""
    hops = max(1, math.ceil(math.log2(max(a.nproc, 2))))
    acc = 0.0
    for proc in range(a.nproc):
        rs, cs = a.local_slice(proc)
        diff = a.data[rs, cs] - b.data[rs, cs]
        acc += float(np.sum(diff * diff))
        stats.charge_compute(proc, 2.0 * diff.size * DGEMM_SECONDS_PER_FLOP)
        stats.charge_comm(
            proc,
            config.element_size,
            ncalls=hops,
            remote=a.nproc > 1,
            channel=CH_ALLREDUCE,
        )
    return math.sqrt(acc)


def _combine_and_symmetrize(
    d: GlobalArray,
    d2: GlobalArray,
    d3: GlobalArray,
    coeffs: tuple[float, float, float],
    stats: CommStats,
) -> GlobalArray:
    """``0.5 (M + M^T)`` for ``M = c1 D + c2 D^2 + c3 D^3``, blockwise.

    The linear combination is owner-local; the symmetrization is the one
    genuinely communicating step -- block (i, j) needs block (j, i), a
    one-sided get from the transpose owner.
    """
    c1, c2, c3 = coeffs
    out = GlobalArray(stats, d.rows, d.cols, d.row_bounds, d.col_bounds)
    combined = c1 * d.data + c2 * d2.data + c3 * d3.data
    for proc in range(out.nproc):
        rs, cs = out.local_slice(proc)
        local = combined[rs, cs]
        stats.charge_compute(
            proc, 5.0 * local.size * DGEMM_SECONDS_PER_FLOP
        )
        # fetch the mirror block of the combination; since the staging
        # array is shared here, charge the access as if remote-owned
        mirror = combined[cs, rs]
        stats.charge_comm(
            proc,
            mirror.size * stats.config.element_size,
            ncalls=1,
            remote=out.owner(cs.start, rs.start) != proc,
            channel=CH_GA,
        )
        out.put(proc, rs.start, cs.start, 0.5 * (local + mirror.T))
    return out


def purify_distributed(
    f_ortho: np.ndarray,
    nocc: int,
    nproc: int,
    config: MachineConfig = LONESTAR,
) -> DistributedPurificationResult:
    """Canonical purification of D from F (orthogonal basis), distributed.

    Mirrors :func:`repro.scf.purification.purify` step for step on a
    near-square ``nproc`` process grid; returns the gathered density
    plus the :class:`CommStats` accounting of every SUMMA panel fetch,
    trace allreduce, and symmetrizing transpose.
    """
    check_symmetric(f_ortho, "fock", tol=1e-8)
    n = f_ortho.shape[0]
    prow, pcol = grid_shape(nproc)
    stats = CommStats(nproc, config)
    d = GlobalArray(stats, n, n, block_bounds(n, prow), block_bounds(n, pcol))
    d.load(initial_density(f_ortho, nocc))

    history: list[float] = []
    for it in range(1, MAX_ITER + 1):
        d2 = summa_multiply(d, d, stats, config)
        err = _distributed_fro_norm(d2, d, stats, config)
        history.append(err)
        if err < TOL:
            stats.barrier()
            return DistributedPurificationResult(
                d.to_numpy(), it - 1, True, history,
                float(stats.clock.max()), stats,
            )
        d3 = summa_multiply(d2, d, stats, config)
        tr_d = distributed_trace(d, stats, config)
        tr_d2 = distributed_trace(d2, stats, config)
        tr_d3 = distributed_trace(d3, stats, config)
        den = tr_d - tr_d2
        c = (tr_d2 - tr_d3) / den if abs(den) > 1e-300 else 0.5
        if c >= 0.5:
            coeffs = (0.0, (1.0 + c) / c, -1.0 / c)
        else:
            coeffs = (
                (1.0 - 2.0 * c) / (1.0 - c),
                (1.0 + c) / (1.0 - c),
                -1.0 / (1.0 - c),
            )
        d = _combine_and_symmetrize(d, d2, d3, coeffs, stats)

    d2 = summa_multiply(d, d, stats, config)
    err = _distributed_fro_norm(d2, d, stats, config)
    history.append(err)
    stats.barrier()
    return DistributedPurificationResult(
        d.to_numpy(), MAX_ITER, err < TOL, history,
        float(stats.clock.max()), stats,
    )


def purification_time_model(
    nbf: int,
    nproc: int,
    config: MachineConfig,
    iterations: int = 45,
) -> float:
    """Modeled wall time of ``iterations`` purification steps.

    Each canonical step costs two SUMMA multiplies (D^2 and D^3) plus
    four log-depth scalar reductions (three steering traces and the
    convergence norm); see Table IX for the share this takes of the HF
    iteration at paper scale.
    """
    if nbf < 1:
        raise ValueError(f"nbf must be >= 1, got {nbf}")
    if nproc < 1:
        raise ValueError(f"nproc must be >= 1, got {nproc}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    per_iter = 2.0 * summa_time_model(nbf, nproc, config)
    if nproc > 1:
        per_iter += 4.0 * math.log2(nproc) * config.latency
    return iterations * per_iter
