"""The Schwarz-only J/K build: the differential oracle of the density screen.

Before a computed :func:`repro.integrals.class_batch.jk_from_plan` build
selected its rows by ``sigma sigma |D| >= tau``
(:func:`~repro.integrals.class_batch.density_rows`), it contracted every
row of the plan -- every Schwarz survivor.  :func:`schwarz_only_jk` is
that build (the serial, store-less path), kept so tests can bound what
the density screen drops and compare the numeric distributed builds,
which contract every row they own, against a build of every row.
Nothing in ``src/`` selects it.
"""

from __future__ import annotations

import numpy as np

from repro.integrals.class_batch import (
    ClassPlan,
    _run_chunks,
    _symmetrized,
    _tally,
    density_stack,
)


def schwarz_only_jk(
    engine, density: np.ndarray, plan: ClassPlan
) -> tuple[np.ndarray, np.ndarray]:
    """J and K of every row of ``plan``, one thread, seeded faults drawn
    per plan row as :func:`~repro.integrals.class_batch.jk_from_plan`
    draws them."""
    n = engine.basis.nbf
    faults = None
    if engine.scf_faults is not None:
        faults = engine.scf_faults.draw_build(plan.nquartets)
    jt, kt, totals = _run_chunks(
        engine, density_stack(density, n).reshape(-1, n * n), plan.chunks(),
        None, faults,
    )
    _tally(engine, totals, faults)
    return _symmetrized(jt, kt, n, density)


def schwarz_only_fock(engine, hcore, density, tau: float = 1e-11) -> np.ndarray:
    """``H + 2J - K`` of every Schwarz survivor at ``tau``."""
    j, k = schwarz_only_jk(engine, density, engine.class_plan(tau))
    return hcore + 2.0 * j - k
