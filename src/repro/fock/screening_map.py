"""Significant sets and screening structure (Sec II-D and III-B).

Wraps a shell-pair Schwarz matrix with the derived objects the parallel
algorithm is built on:

* the *significant set* ``Phi(M) = { P : sigma(M,P) >= tau / m }`` where
  ``m = max sigma`` (the paper's definition of pair significance),
* quartet survival ``sigma(M,P) * sigma(N,Q) > tau``,
* summary statistics (B = average |Phi|, q = average overlap of
  consecutive Phi sets) feeding the performance model of Sec III-G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.util.validation import check_finite, check_square, check_symmetric


@dataclass
class ScreeningMap:
    """Screening structure over a basis's shell pairs.

    Parameters
    ----------
    basis:
        The shell list (provides sizes and centers).
    sigma:
        Shell-pair Schwarz values, shape (nshells, nshells), symmetric.
    tau:
        Drop tolerance for quartets (the paper uses 1e-10).
    """

    basis: BasisSet
    sigma: np.ndarray
    tau: float
    #: per-instance memo for structures other modules derive from
    #: ``(basis, sigma, tau)`` alone (NWChem task shapes), kept beside
    #: the cached ``significant`` / ``phi`` so a core sweep builds them once
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_square(self.sigma, "sigma")
        check_finite(self.sigma, "sigma")
        if (self.sigma < 0).any():
            raise ValueError(f"sigma must be non-negative, got min {self.sigma.min()!r}")
        check_symmetric(self.sigma, "sigma", tol=1e-10)
        if self.sigma.shape[0] != self.basis.nshells:
            raise ValueError(
                f"sigma is {self.sigma.shape[0]}x..., basis has "
                f"{self.basis.nshells} shells"
            )
        if not 0 < self.tau < np.inf:  # NaN included
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    @property
    def nshells(self) -> int:
        return self.basis.nshells

    @cached_property
    def sigma_max(self) -> float:
        """m = max_{M,N} sigma(M,N) (Sec II-D)."""
        return float(self.sigma.max())

    @cached_property
    def significant(self) -> np.ndarray:
        """Boolean matrix: pair (M, N) is significant (sigma >= tau / m).

        Diagonal pairs (M, M) are always kept significant: the prefetch
        coverage guarantee of Sec III-B (all six D blocks of a task's
        quartets lie inside the three fetch regions) relies on
        ``M in Phi(M)``, which holds for any realistic tau anyway.

        An all-zero sigma is a valid screen (zero is a true Schwarz
        bound): only the forced diagonal is significant, and no quartet
        survives.
        """
        m = self.sigma_max
        out = self.sigma >= self.tau / m if m > 0 else np.zeros_like(self.sigma, bool)
        np.fill_diagonal(out, True)
        return out

    @cached_property
    def phi(self) -> list[np.ndarray]:
        """Phi(M): sorted array of shells significant with M, per shell."""
        return [np.flatnonzero(self.significant[m]) for m in range(self.nshells)]

    def phi_size(self) -> np.ndarray:
        return np.array([len(p) for p in self.phi], dtype=int)

    # -- aggregate statistics for the performance model -----------------------

    @cached_property
    def avg_phi(self) -> float:
        """B: average significant-set size (Sec III-G)."""
        return float(self.phi_size().mean())

    @cached_property
    def avg_consecutive_overlap(self) -> float:
        """q: average |Phi(M) & Phi(M+1)| (Sec III-G, Eq 8)."""
        sig = self.significant
        if self.nshells < 2:
            return float(self.avg_phi)
        inter = np.logical_and(sig[:-1], sig[1:]).sum(axis=1)
        return float(inter.mean())

    @cached_property
    def avg_shell_size(self) -> float:
        """A: average basis functions per shell (Sec III-G)."""
        return float(self.basis.shell_sizes().mean())

    def phi_union(self, shells: np.ndarray) -> np.ndarray:
        """Union of Phi over a set of shells, as a boolean mask."""
        shells = np.asarray(shells, dtype=int)
        if shells.size == 0:
            return np.zeros(self.nshells, dtype=bool)
        return self.significant[shells].any(axis=0)

    def stats(self) -> dict:
        """Summary used in reports and by the performance model."""
        return {
            "nshells": self.nshells,
            "tau": self.tau,
            "sigma_max": self.sigma_max,
            "A_avg_shell_size": self.avg_shell_size,
            "B_avg_phi": self.avg_phi,
            "q_avg_overlap": self.avg_consecutive_overlap,
            "significant_pairs": int(self.significant.sum()),
        }
