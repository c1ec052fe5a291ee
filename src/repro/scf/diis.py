"""DIIS (Pulay) convergence acceleration for the SCF iteration.

Not described in the paper (its focus is a single Fock build), but any
production SCF driver needs it: plain fixed-point SCF oscillates for many
molecules.  Uses the commutator error ``e = FDS - SDF`` expressed in the
orthogonal basis.
"""

from __future__ import annotations

from collections import deque

import numpy as np

#: (Fock, error) pairs the extrapolation window keeps
MAX_VECTORS = 8


class DIIS:
    """Direct Inversion in the Iterative Subspace.

    Keeps a sliding window of (Fock, error) pairs and extrapolates the
    next Fock matrix as the error-minimizing linear combination.
    """

    def __init__(self):
        self._focks: deque[np.ndarray] = deque(maxlen=MAX_VECTORS)
        self._errors: deque[np.ndarray] = deque(maxlen=MAX_VECTORS)

    @staticmethod
    def error_vector(
        fock: np.ndarray, density: np.ndarray, s: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        """Orthogonalized SCF error ``X^T (FDS - SDF) X``."""
        fds = fock @ density @ s
        return x.T @ (fds - fds.T) @ x

    @property
    def size(self) -> int:
        return len(self._focks)

    def push(self, fock: np.ndarray, error: np.ndarray) -> None:
        self._focks.append(fock.copy())
        self._errors.append(error.copy())

    def reset(self) -> None:
        """Drop the stored window (convergence-guard ``diis_reset`` rung).

        After an oscillating stretch, the window is full of Fock
        matrices from both lobes of the oscillation and extrapolation
        keeps reproducing it; starting the subspace fresh from the next
        iterate breaks the cycle.
        """
        self._focks.clear()
        self._errors.clear()

    def state_arrays(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The stored (Fock, error) windows, oldest first (checkpointing)."""
        return list(self._focks), list(self._errors)

    def load_state(
        self, focks: list[np.ndarray], errors: list[np.ndarray]
    ) -> None:
        """Restore a window saved by :meth:`state_arrays`.

        Restoring then extrapolating reproduces the pre-checkpoint
        trajectory bitwise -- the restart guarantee of
        ``docs/ROBUSTNESS.md``.
        """
        if len(focks) != len(errors):
            raise ValueError(
                f"{len(focks)} Fock matrices vs {len(errors)} error vectors"
            )
        self._focks.clear()
        self._errors.clear()
        for f, e in zip(focks, errors):
            self.push(f, e)

    def extrapolate(self) -> np.ndarray:
        """Return the DIIS-extrapolated Fock matrix.

        Falls back to the latest Fock matrix if the DIIS system is
        singular (e.g. duplicated error vectors).
        """
        m = self.size
        if m == 0:
            raise RuntimeError("DIIS has no stored vectors")
        if m == 1:
            return self._focks[0].copy()
        b = np.empty((m + 1, m + 1))
        b[-1, :] = -1.0
        b[:, -1] = -1.0
        b[-1, -1] = 0.0
        for i in range(m):
            for jj in range(i, m):
                v = float(np.sum(self._errors[i] * self._errors[jj]))
                b[i, jj] = b[jj, i] = v
        rhs = np.zeros(m + 1)
        rhs[-1] = -1.0
        try:
            coef = np.linalg.solve(b, rhs)[:m]
        except np.linalg.LinAlgError:
            return self._focks[-1].copy()
        out = np.zeros_like(self._focks[0])
        for c, f in zip(coef, self._focks):
            out += c * f
        return out
