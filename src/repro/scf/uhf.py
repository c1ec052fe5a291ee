"""Unrestricted Hartree-Fock for open-shell molecules.

The paper treats closed shells only (Sec II-A); UHF is the natural
extension a usable package needs for radicals and triplets.  Spin-alpha
and spin-beta orbitals get separate Fock matrices

``F_s = Hcore + J(D_a + D_b) - K(D_s)``,   s in {alpha, beta},

built from the same screened symmetry-exploiting J/K machinery as RHF
(both spin densities contracted in one pass over the integrals).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.molecule import Molecule
from repro.integrals.engine import ERIEngine, MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.scf.diis import DIIS
from repro.scf.fock import build_jk
from repro.scf.guard import GuardConfig, GuardEvent, SCFGuard
from repro.scf.orthogonalization import density_from_fock, orthogonalizer


@dataclass
class UHFResult:
    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    converged: bool
    iterations: int
    fock_alpha: np.ndarray
    fock_beta: np.ndarray
    density_alpha: np.ndarray
    density_beta: np.ndarray
    orbital_energies_alpha: np.ndarray | None
    orbital_energies_beta: np.ndarray | None
    energy_history: list[float] = field(default_factory=list)
    #: typed convergence-guard event trail (empty when the guard is off)
    guard_events: list[GuardEvent] = field(default_factory=list)
    #: :meth:`repro.scf.guard.SCFGuard.summary` (None when the guard is off)
    guard_summary: dict | None = None

    @property
    def spin_density(self) -> np.ndarray:
        return self.density_alpha - self.density_beta

    def s_squared(self, s: np.ndarray, n_alpha: int, n_beta: int) -> float:
        """<S^2> expectation (exact value: Sz(Sz+1) for pure states)."""
        sz = 0.5 * (n_alpha - n_beta)
        overlap_ab = s @ self.density_beta @ s @ self.density_alpha
        return sz * (sz + 1.0) + n_beta - float(np.trace(overlap_ab))


@dataclass
class UHF:
    """Unrestricted Hartree-Fock driver.

    ``multiplicity`` is 2S+1; the alpha/beta electron split follows from
    it and the total electron count.
    """

    molecule: Molecule
    basis_name: str = "sto-3g"
    multiplicity: int | None = None
    engine: ERIEngine | None = None
    tau: float = 1e-11
    use_diis: bool = True
    max_iter: int = 200
    e_tol: float = 1e-9
    d_tol: float = 1e-7
    #: symmetry-breaking mix of the beta HOMO/LUMO at the guess (radians);
    #: nonzero values let UHF escape spin-restricted saddle points
    guess_mix: float = 0.0
    #: convergence watchdog (:mod:`repro.scf.guard`); ``True`` = defaults
    guard: GuardConfig | bool | None = None

    def __post_init__(self) -> None:
        nel = self.molecule.nelectrons
        if self.multiplicity is None:
            self.multiplicity = 1 if nel % 2 == 0 else 2
        nunpaired = self.multiplicity - 1
        if nunpaired < 0 or (nel - nunpaired) % 2 != 0 or nunpaired > nel:
            raise ValueError(
                f"multiplicity {self.multiplicity} impossible for {nel} electrons"
            )
        self.n_alpha = (nel + nunpaired) // 2
        self.n_beta = (nel - nunpaired) // 2
        self.basis = (
            self.engine.basis
            if self.engine is not None
            else BasisSet.build(self.molecule, self.basis_name)
        )
        if self.engine is None:
            self.engine = MDEngine(self.basis)
        if self.n_alpha > self.basis.nbf:
            raise ValueError("more alpha electrons than basis functions")
        if self.guard is True:
            self.guard = GuardConfig()
        elif self.guard is False:
            self.guard = None

    def _fock_pair(self, h, d_a, d_b) -> tuple[np.ndarray, np.ndarray]:
        """``F_s = h + J(D_a) + J(D_b) - K(D_s)`` for both spins from one
        pass over the integrals (J is linear in D; an empty beta space
        contributes nothing and is left out of the stack)."""
        dens = np.stack([d_a, d_b] if self.n_beta > 0 else [d_a])
        j, k = build_jk(self.engine, dens, self.tau)
        f = h + j.sum(axis=0)
        return f - k[0], (f - k[1] if self.n_beta > 0 else f)

    def run(self) -> UHFResult:
        guard: SCFGuard | None = None
        if self.guard is not None:
            guard = SCFGuard(
                self.guard, e_tol=self.e_tol, d_tol=self.d_tol,
                molecule=self.molecule.name or self.molecule.formula,
            )
            self.engine.finite_check = self.guard.eri_sentinel
        pairs = getattr(self.engine, "pair_cache", None)
        s = overlap(self.basis, pairs)
        h = core_hamiltonian(self.basis, pairs)
        x = orthogonalizer(s)
        enuc = self.molecule.nuclear_repulsion()

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

        diis_a = DIIS() if self.use_diis else None
        diis_b = DIIS() if self.use_diis else None
        history: list[float] = []
        e_old = np.inf
        converged = False
        eps_a = eps_b = None
        f_a = f_b = h
        it = 0
        for it in range(1, self.max_iter + 1):
            d_total = d_a + d_b
            f_a, f_b = self._fock_pair(h, d_a, d_b)
            if guard is not None:
                bad = not guard.check_matrix("fock_alpha", f_a, it)
                bad = not guard.check_matrix("fock_beta", f_b, it) or bad
                if bad:
                    guard.on_nonfinite(it, "fock")
                    if guard.nonfinite_exhausted():
                        raise guard.fail(it, "Fock matrix is non-finite")
                    if guard.consume_diis_reset() and diis_a is not None:
                        diis_a.reset()
                        diis_b.reset()
                    thr = guard.consume_canonical_orth()
                    if thr is not None:
                        x = orthogonalizer(s, threshold=thr, canonical=True)
                    if (
                        guard.consume_reference_eri()
                        and self.engine.supports_reference_path
                    ):
                        self.engine.force_reference_path()
                    # rebuild both spins on the degraded configuration
                    f_a, f_b = self._fock_pair(h, d_a, d_b)
                    if not (
                        np.isfinite(f_a).all() and np.isfinite(f_b).all()
                    ):
                        raise guard.fail(
                            it, "Fock matrix is non-finite after rebuild"
                        )
            e_elec = 0.5 * float(
                np.sum(d_total * h) + np.sum(d_a * f_a) + np.sum(d_b * f_b)
            )
            history.append(e_elec + enuc)

            f_a_eff, f_b_eff = f_a, f_b
            if diis_a is not None:
                if guard is not None and guard.consume_diis_reset():
                    diis_a.reset()
                    diis_b.reset()
                err_a = DIIS.error_vector(f_a, d_a, s, x)
                diis_a.push(f_a, err_a)
                f_a_eff = diis_a.extrapolate()
                if self.n_beta > 0:
                    err_b = DIIS.error_vector(f_b, d_b, s, x)
                    diis_b.push(f_b, err_b)
                    f_b_eff = diis_b.extrapolate()

            shift = guard.level_shift if guard is not None else 0.0
            if shift:
                d_a_new, eps_a, _ca = density_from_fock(
                    f_a_eff, x, self.n_alpha,
                    level_shift=shift, overlap=s, density=d_a,
                )
            else:
                d_a_new, eps_a, _ca = density_from_fock(f_a_eff, x, self.n_alpha)
            if self.n_beta > 0:
                if shift:
                    d_b_new, eps_b, _cb = density_from_fock(
                        f_b_eff, x, self.n_beta,
                        level_shift=shift, overlap=s, density=d_b,
                    )
                else:
                    d_b_new, eps_b, _cb = density_from_fock(
                        f_b_eff, x, self.n_beta
                    )
            else:
                d_b_new = np.zeros_like(d_a_new)
            if guard is not None:
                d_a_new = guard.damp(d_a_new, d_a)
                d_b_new = guard.damp(d_b_new, d_b)
            change = max(
                float(np.max(np.abs(d_a_new - d_a))),
                float(np.max(np.abs(d_b_new - d_b))),
            )
            e_change = abs(history[-1] - e_old)
            e_old = history[-1]
            d_a, d_b = d_a_new, d_b_new
            if guard is not None:
                guard.observe(it, history[-1], change)
                thr = guard.consume_canonical_orth()
                if thr is not None:
                    x = orthogonalizer(s, threshold=thr, canonical=True)
                if (
                    guard.consume_reference_eri()
                    and self.engine.supports_reference_path
                ):
                    self.engine.force_reference_path()
            if change < self.d_tol and e_change < self.e_tol:
                converged = True
                break

        return UHFResult(
            energy=history[-1],
            electronic_energy=history[-1] - enuc,
            nuclear_repulsion=enuc,
            converged=converged,
            iterations=it,
            fock_alpha=f_a,
            fock_beta=f_b,
            density_alpha=d_a,
            density_beta=d_b,
            orbital_energies_alpha=eps_a,
            orbital_energies_beta=eps_b,
            energy_history=history,
            guard_events=list(guard.events) if guard is not None else [],
            guard_summary=guard.summary() if guard is not None else None,
        )
