"""Whole-HF-iteration time model: Fock build + the density step.

Table IX frames the paper's purification choice: at paper scale the
Fock build dominates the iteration, but its *share* shrinks as the
density step scales worse -- and a dense diagonalization scales far
worse than SUMMA purification, because parallel eigensolvers sustain a
small fraction of the DGEMM rate and serialize on ~n panel stages of
collectives.  This module extends Table IX with that dense-eigensolver
alternative so the crossover the paper argues for is explicit.

All inputs are a simulated Fock result (:class:`FockSimResult`) plus
the machine model; nothing here runs numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fock.simulate import FockSimResult
from repro.runtime.machine import MachineConfig

from repro.dist.purification_dist import purification_time_model

#: Flops of a dense symmetric eigendecomposition with all eigenvectors,
#: as a multiple of n^3 (tridiagonalization + implicit QR + back
#: transformation).
EIG_FLOPS_PER_N3 = 9.0

#: Sustained seconds/flop of the parallel eigensolver -- an order of
#: magnitude off the DGEMM rate: the tridiagonal reduction is
#: memory-bound level-2 work (cf. ``DGEMM_SECONDS_PER_FLOP``).
EIG_SECONDS_PER_FLOP = 4.0e-10


def diagonalization_time_model(
    nbf: int, nproc: int, config: MachineConfig
) -> float:
    """Modeled wall time of one dense eigensolve on ``nproc`` processes.

    Compute parallelizes as ``9 n^3 / p`` at the eigensolver's sustained
    rate; on top of it the reduction runs ~n panel stages whose
    log-depth collectives do not overlap with compute (plus a log-factor
    of contention), which is what erodes its scaling relative to
    purification's two clean SUMMA multiplies per step.
    """
    if nbf < 1:
        raise ValueError(f"nbf must be >= 1, got {nbf}")
    if nproc < 1:
        raise ValueError(f"nproc must be >= 1, got {nproc}")
    t = EIG_FLOPS_PER_N3 * nbf**3 * EIG_SECONDS_PER_FLOP / nproc
    if nproc > 1:
        lg = math.log2(nproc)
        t += config.latency * nbf * lg * lg
    return t


@dataclass(frozen=True)
class HFIterationBreakdown:
    """Time split of one HF iteration under both density-step choices."""

    cores: int
    t_fock: float
    t_purification: float
    t_diagonalization: float

    @property
    def t_iteration_purify(self) -> float:
        """Fock build + purification (the paper's pipeline)."""
        return self.t_fock + self.t_purification

    @property
    def purification_percent(self) -> float:
        """Purification's share of its iteration (Table IX's `%` column)."""
        return 100.0 * self.t_purification / self.t_iteration_purify


def hf_iteration_breakdown(
    fock: FockSimResult,
    nbf: int,
    config: MachineConfig,
    purification_iterations: int = 45,
) -> HFIterationBreakdown:
    """Table IX row for one simulated Fock build.

    The density-step models run on the Fock build's process count (one
    GTFock process per node), on the same 2-D blocked distribution the
    build leaves F and D in.
    """
    nproc = max(1, fock.nproc)
    return HFIterationBreakdown(
        cores=fock.cores,
        t_fock=fock.t_fock_max,
        t_purification=purification_time_model(
            nbf, nproc, config, iterations=purification_iterations
        ),
        t_diagonalization=diagonalization_time_model(nbf, nproc, config),
    )
