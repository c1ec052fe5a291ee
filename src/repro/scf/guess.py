"""Initial density guesses for the SCF iteration (line 1 of Algorithm 1)."""

from __future__ import annotations

import numpy as np

from repro.scf.orthogonalization import density_from_fock


def core_guess(hcore: np.ndarray, x: np.ndarray, nocc: int) -> np.ndarray:
    """Density from diagonalizing the core Hamiltonian (the classic guess)."""
    d, _eps, _c = density_from_fock(hcore, x, nocc)
    return d
