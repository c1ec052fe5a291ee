"""End-to-end integration: full HF iterations through the distributed stack."""

import numpy as np
import pytest

from reference_nwchem import nwchem_build
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import h2, water
from repro.dist.purification_dist import purify_distributed
from repro.fock.gtfock import gtfock_build
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.runtime.machine import LONESTAR
from repro.scf.fock import hf_electronic_energy
from repro.scf.guess import core_guess
from repro.scf.hf import RHF
from repro.scf.orthogonalization import density_from_fock, orthogonalizer


def distributed_scf(mol, builder, nproc, iters=12):
    """A hand-rolled SCF loop whose Fock builds run distributed."""
    basis = BasisSet.build(mol, "sto-3g")
    s = overlap(basis)
    h = core_hamiltonian(basis)
    x = orthogonalizer(s)
    nocc = mol.nelectrons // 2
    d = core_guess(h, x, nocc)
    energy = None
    for _ in range(iters):
        res = builder(MDEngine(basis), h, d, nproc, 1e-11)
        energy = hf_electronic_energy(h, res.fock, d) + mol.nuclear_repulsion()
        d, _eps, _c = density_from_fock(res.fock, x, nocc)
    return energy


class TestDistributedSCF:
    def test_gtfock_scf_matches_serial(self):
        serial = RHF(h2(0.7414), use_diis=False, max_iter=12).run()
        dist = distributed_scf(h2(0.7414), gtfock_build, nproc=2)
        assert dist == pytest.approx(serial.energy, abs=1e-6)

    def test_nwchem_scf_matches_serial(self):
        serial = RHF(h2(0.7414), use_diis=False, max_iter=12).run()
        dist = distributed_scf(h2(0.7414), nwchem_build, nproc=2)
        assert dist == pytest.approx(serial.energy, abs=1e-6)

    def test_water_gtfock_scf(self):
        serial = RHF(water(), use_diis=False, max_iter=12).run()
        dist = distributed_scf(water(), gtfock_build, nproc=4)
        assert dist == pytest.approx(serial.energy, abs=1e-5)


class TestFockThenPurification:
    """Sec IV-E: the Fock build's distribution feeds SUMMA directly."""

    def test_distributed_purification_closes_the_loop(self, water_mol,
                                                      water_matrices,
                                                      water_fock_reference):
        s, _h, x, _d = water_matrices
        f_ortho = x.T @ water_fock_reference @ x
        nocc = water_mol.nelectrons // 2
        res = purify_distributed(f_ortho, nocc, nproc=4, config=LONESTAR)
        assert res.converged
        d_ref, _eps, _c = density_from_fock(water_fock_reference, x, nocc)
        d_ao = x @ res.density @ x.T
        assert np.allclose(d_ao, d_ref, atol=1e-7)


class TestEngineInterchangeability:
    def test_os_engine_in_rhf(self):
        """The OS engine drives a full SCF to the same energy."""
        from repro.integrals.engine import OSEngine
        from repro.chem.basis.basisset import BasisSet

        mol = h2(0.7414)
        basis = BasisSet.build(mol, "sto-3g")
        e_md = RHF(mol).run().energy
        e_os = RHF(mol, engine=OSEngine(basis)).run().energy
        assert e_os == pytest.approx(e_md, abs=1e-10)

    def test_631g_basis_lowers_energy(self):
        """Bigger basis, variationally lower energy (H2)."""
        e_sto = RHF(h2(0.7414), basis_name="sto-3g").run().energy
        e_631 = RHF(h2(0.7414), basis_name="6-31g").run().energy
        assert e_631 < e_sto

    def test_vdzsim_basis_runs_scf(self):
        """The structural basis is numerically usable too."""
        res = RHF(h2(0.7414), basis_name="vdz-sim", max_iter=50).run()
        assert res.converged
        assert res.energy < -1.0
