"""Sequential reference Fock construction.

This is the single-process "ground truth" every distributed builder in
:mod:`repro.fock` is validated against: the *canonical* shell quartets
(8-fold-unique, Cauchy-Schwarz screened) of the engine's class plan,
each contracted into its six Fock blocks, assembled as

``F = H^core + 2J - K``          (Eq 3 of the paper).

The numeric distributed builders (:mod:`repro.fock.gtfock`,
:mod:`repro.fock.nwchem`) contract the same plan rows, grouped by the
task owning each, so numeric equality with this build is a test of
*task coverage and data movement*.
"""

from __future__ import annotations

import numpy as np

from repro.integrals.class_batch import jk_from_plan
from repro.integrals.engine import ERIEngine

__all__ = [
    "build_jk",
    "fock_matrix",
    "hf_electronic_energy",
]


def build_jk(
    engine: ERIEngine,
    density: np.ndarray,
    tau: float = 1e-11,
) -> tuple[np.ndarray, np.ndarray]:
    """Coulomb and exchange matrices over the screened canonical quartets.

    One path for every engine (:mod:`repro.integrals.class_batch`): the
    mapped matrices of an attached integral store filled at ``tau`` (by
    this build, if it was not), or, over the engine's memoized class
    plan, each chunk's blocks computed and one six-block density
    contraction per block shape.

    Parameters
    ----------
    engine:
        ERI engine (provides the store, the class plan and the Schwarz
        matrix).
    density:
        Symmetric density matrix D, shape (nbf, nbf) -- or a stack
        (k, nbf, nbf) of them, contracted in one pass over the integrals
        and returned as stacked (k, nbf, nbf) J and K.
    tau:
        Cauchy-Schwarz drop tolerance (the paper uses 1e-10).
    """
    return jk_from_plan(engine, density, tau=tau)


def fock_matrix(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    tau: float = 1e-11,
) -> np.ndarray:
    """Closed-shell Fock matrix F = H^core + 2J - K (Eq 3).  A build served
    from a store adds ``G = 2J - K`` from its folded P alone (two sparse
    mat-vecs); a computed one forms ``H + 2J - K`` from J and K."""
    jg, k = jk_from_plan(engine, density, tau=tau, g_only=True)
    return hcore + jg if k is None else hcore + 2.0 * jg - k


def hf_electronic_energy(
    hcore: np.ndarray, fock: np.ndarray, density: np.ndarray
) -> float:
    """Closed-shell electronic energy  E = sum_ij D_ij (H_ij + F_ij)."""
    return float(np.sum(density * (hcore + fock)))
