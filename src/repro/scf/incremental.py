"""Incremental (delta-density) Fock construction.

A standard direct-SCF optimization that composes naturally with
Cauchy-Schwarz screening: build the two-electron part from the density
*change* ``dD = D_k - D_{k-1}`` instead of D.  Near convergence
``max|dD|`` is tiny, so the effective screening threshold
``tau / max|dD|`` drops almost every quartet, making late SCF iterations
nearly free.  Periodic full rebuilds bound the accumulated numerical
error.

This is one of the "avenues open for future research" class of
improvements the paper's framework admits; it reuses the exact same
screened J/K builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.integrals.engine import ERIEngine
from repro.scf.fock import build_jk


@dataclass
class IncrementalFockBuilder:
    """Stateful Fock constructor using density differences.

    Parameters
    ----------
    engine:
        ERI engine shared across iterations.
    tau:
        Base screening threshold for full builds.  Incremental builds
        screen quartets against the *contribution* bound
        ``sigma_bra sigma_ket max|dD|``, i.e. pass ``tau / max|dD|`` to
        the quartet enumeration.
    rebuild_every:
        Force a full (non-incremental) rebuild every N calls to bound
        error accumulation.
    threads:
        Worker threads of every J/K build (as ``build_jk``'s).
    """

    engine: ERIEngine
    tau: float = 1e-11
    rebuild_every: int = 8
    threads: int | None = None
    _g: np.ndarray | None = field(default=None, repr=False)
    _d_last: np.ndarray | None = field(default=None, repr=False)
    _count: int = 0
    #: statistics: quartets computed per call (for tests/reports)
    history: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self._g = None
        self._d_last = None
        self._count = 0

    def fock(self, hcore: np.ndarray, density: np.ndarray) -> np.ndarray:
        """F = Hcore + G(D), with G updated incrementally when possible."""
        full = (
            self._g is None
            or self._d_last is None
            or self._count % self.rebuild_every == 0
        )
        before = self.engine.quartets_computed
        if full:
            j, k = build_jk(self.engine, density, self.tau, self.threads)
            self._g = 2.0 * j - k
        else:
            delta = density - self._d_last
            dmax = float(np.max(np.abs(delta)))
            if dmax > 0.0:
                # quartet survives iff sigma*sigma * dmax > tau -- which
                # only saves kernel work: a ready store has none left to
                # save, and its full-build plan is already assembled
                store = self.engine.integral_store
                served = store is not None and store.ready
                eff_tau = self.tau if served else self.tau / dmax
                j, k = build_jk(self.engine, delta, eff_tau, self.threads)
                self._g = self._g + 2.0 * j - k
        self.history.append(self.engine.quartets_computed - before)
        self._d_last = density.copy()
        self._count += 1
        return hcore + self._g
