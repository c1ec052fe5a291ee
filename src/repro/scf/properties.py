"""Orbital-level summaries of a converged SCF (``repro scf`` prints them)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OrbitalSummary:
    """HOMO/LUMO summary of an orbital-energy spectrum."""

    homo: float
    lumo: float | None

    @property
    def gap(self) -> float | None:
        return None if self.lumo is None else self.lumo - self.homo


def orbital_summary(orbital_energies: np.ndarray, nocc: int) -> OrbitalSummary:
    """HOMO/LUMO energies from sorted orbital energies."""
    eps = np.asarray(orbital_energies, dtype=float)
    if not 0 < nocc <= eps.size:
        raise ValueError(f"nocc={nocc} out of range for {eps.size} orbitals")
    homo = float(eps[nocc - 1])
    lumo = float(eps[nocc]) if nocc < eps.size else None
    return OrbitalSummary(homo=homo, lumo=lumo)
