"""Unrestricted Hartree-Fock for open-shell molecules.

The paper treats closed shells only (Sec II-A); UHF is the natural
extension a usable package needs for radicals and triplets.  Spin-alpha
and spin-beta orbitals get separate Fock matrices

``F_s = Hcore + J(D_a + D_b) - K(D_s)``,   s in {alpha, beta},

built from the same screened symmetry-exploiting J/K machinery as RHF
(both spin densities contracted in one pass over the integrals), and
iterated by the same loop (:meth:`repro.scf.hf.SCFDriver._iterate`) as a
two-channel spin stack.  Its final Fock matrices and energy are, as
RHF's, one full build from the final densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scf.fock import build_jk
from repro.scf.hf import SCFDriver, SCFOutcome
from repro.scf.orthogonalization import density_from_fock


@dataclass(kw_only=True)
class UHFResult(SCFOutcome):
    """Converged (or final) state of a UHF run."""

    fock_alpha: np.ndarray
    fock_beta: np.ndarray
    density_alpha: np.ndarray
    density_beta: np.ndarray
    orbital_energies_alpha: np.ndarray | None
    orbital_energies_beta: np.ndarray | None

    def s_squared(self, s: np.ndarray, n_alpha: int, n_beta: int) -> float:
        """<S^2> expectation (exact value: Sz(Sz+1) for pure states)."""
        sz = 0.5 * (n_alpha - n_beta)
        overlap_ab = s @ self.density_beta @ s @ self.density_alpha
        return sz * (sz + 1.0) + n_beta - float(np.trace(overlap_ab))


@dataclass
class UHF(SCFDriver):
    """Unrestricted Hartree-Fock driver.

    ``multiplicity`` is 2S+1; the alpha/beta electron split follows from
    it and the total electron count.  Every other field is
    :class:`~repro.scf.hf.SCFDriver`'s and behaves as on RHF.
    """

    multiplicity: int | None = None
    #: symmetry-breaking mix of the beta HOMO/LUMO at the guess (radians);
    #: nonzero values let UHF escape spin-restricted saddle points
    guess_mix: float = 0.0

    _spin_labels = ("_alpha", "_beta")

    def __post_init__(self) -> None:
        nel = self.molecule.nelectrons
        if self.multiplicity is None:
            self.multiplicity = 1 if nel % 2 == 0 else 2
        nunpaired = self.multiplicity - 1
        if nunpaired < 0 or (nel - nunpaired) % 2 != 0 or nunpaired > nel:
            raise ValueError(
                f"multiplicity {self.multiplicity} impossible for {nel} electrons"
            )
        super().__post_init__()
        self.n_alpha = (nel + nunpaired) // 2
        self.n_beta = (nel - nunpaired) // 2
        if self.n_alpha > self.basis.nbf:
            raise ValueError("more alpha electrons than basis functions")
        self._occupations = (self.n_alpha, self.n_beta)

    def run(self) -> UHFResult:
        """Run the SCF iteration to convergence from the core guess."""
        return self._run()

    def _guess(self, h: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        d_a, _e, c0 = density_from_fock(h, x, max(self.n_alpha, 1))
        if self.n_beta > 0:
            d_b, _eb, _cb = density_from_fock(h, x, self.n_beta)
        else:
            d_b = np.zeros_like(d_a)
        if self.guess_mix != 0.0 and self.n_beta > 0 and c0.shape[1] > self.n_beta:
            c = c0.copy()
            homo, lumo = self.n_beta - 1, self.n_beta
            t = self.guess_mix
            mixed = np.cos(t) * c[:, homo] + np.sin(t) * c[:, lumo]
            c[:, homo] = mixed
            d_b = c[:, : self.n_beta] @ c[:, : self.n_beta].T
        return [d_a, d_b]

    def _focks(self, bases: list, ds: list[np.ndarray]) -> list[np.ndarray]:
        """``F_s = base_s + J(D_a) + J(D_b) - K(D_s)`` for both spins from
        one pass over the integrals (J is linear in D; an empty beta space
        contributes nothing and is left out of the stack)."""
        dens = np.stack(ds if self.n_beta > 0 else ds[:1])
        j, k = build_jk(self.engine, dens, self.tau)
        j = j.sum(axis=0)
        return [bases[0] + j - k[0], bases[1] + j - k[1] if self.n_beta > 0
                else bases[1] + j]

    def _electronic_energy(self, h, fs, ds) -> float:
        (f_a, f_b), (d_a, d_b) = fs, ds
        return 0.5 * float(
            np.sum((d_a + d_b) * h) + np.sum(d_a * f_a) + np.sum(d_b * f_b)
        )

    def _result(self, fs, ds, eps, coeffs, **common) -> UHFResult:
        return UHFResult(
            fock_alpha=fs[0], fock_beta=fs[1],
            density_alpha=ds[0], density_beta=ds[1],
            orbital_energies_alpha=eps[0], orbital_energies_beta=eps[1],
            **common,
        )
