"""Tests for dipole integrals and SCF properties."""

import numpy as np
import pytest

from conftest import pair_block

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import h2, methane, water
from repro.integrals.moments import dipole_integrals
from repro.integrals.oneelec import overlap
from repro.scf.hf import RHF
from repro.scf.properties import (
    dipole_moment,
    mulliken_charges,
    mulliken_populations,
    orbital_summary,
)


def s_shell(alpha, center):
    return Shell(l=0, exps=np.array([alpha]), coefs=np.array([1.0]),
                 center=np.array(center, dtype=float), atom_index=0)


class TestDipoleIntegrals:
    def test_s_gaussian_centered_at_origin(self):
        """<s| r |s> = center for a normalized Gaussian (here 0)."""
        sh = s_shell(0.9, (0, 0, 0))
        blocks = pair_block(dipole_integrals, sh, sh, origin=np.zeros(3))
        for k in range(3):
            assert blocks[k][0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_s_gaussian_off_origin(self):
        """<s| r_k |s> equals the Gaussian center coordinate."""
        c = (0.3, -0.7, 1.1)
        sh = s_shell(1.4, c)
        blocks = pair_block(dipole_integrals, sh, sh, origin=np.zeros(3))
        for k in range(3):
            assert blocks[k][0, 0] == pytest.approx(c[k], rel=1e-12)

    def test_origin_shift_identity(self):
        """<a| r - O |b> = <a| r |b> - O <a|b>."""
        basis = BasisSet.build(water(), "sto-3g")
        s = overlap(basis)
        d0 = dipole_integrals(basis, np.zeros(3))
        origin = np.array([0.5, -1.0, 2.0])
        d1 = dipole_integrals(basis, origin)
        for k in range(3):
            assert np.allclose(d1[k], d0[k] - origin[k] * s, atol=1e-10)

    def test_symmetric(self):
        basis = BasisSet.build(water(), "sto-3g")
        d = dipole_integrals(basis)
        for k in range(3):
            assert np.allclose(d[k], d[k].T, atol=1e-12)


class TestDipoleMoment:
    def test_h2_zero_by_symmetry(self):
        mol = h2(0.7414)
        res = RHF(mol).run()
        basis = BasisSet.build(mol, "sto-3g")
        mu = dipole_moment(basis, res.density)
        assert mu.magnitude == pytest.approx(0.0, abs=1e-8)

    def test_water_nonzero_reasonable(self):
        mol = water()
        res = RHF(mol).run()
        basis = BasisSet.build(mol, "sto-3g")
        mu = dipole_moment(basis, res.density)
        # RHF/STO-3G water dipole ~ 1.7 debye
        assert 1.0 < mu.debye < 2.5

    def test_origin_independent_for_neutral(self):
        mol = water()
        res = RHF(mol).run()
        basis = BasisSet.build(mol, "sto-3g")
        m0 = dipole_moment(basis, res.density, np.zeros(3)).total
        m1 = dipole_moment(basis, res.density, np.array([1.0, 2.0, 3.0])).total
        assert np.allclose(m0, m1, atol=1e-8)


class TestMulliken:
    @pytest.fixture(scope="class")
    def water_state(self):
        mol = water()
        res = RHF(mol).run()
        basis = BasisSet.build(mol, "sto-3g")
        return basis, res.density, overlap(basis)

    def test_populations_sum_to_electrons(self, water_state):
        basis, d, s = water_state
        pops = mulliken_populations(basis, d, s)
        assert pops.sum() == pytest.approx(10.0, abs=1e-8)

    def test_charges_sum_to_molecular_charge(self, water_state):
        basis, d, s = water_state
        q = mulliken_charges(basis, d, s)
        assert q.sum() == pytest.approx(0.0, abs=1e-8)

    def test_oxygen_negative_hydrogens_positive(self, water_state):
        basis, d, s = water_state
        q = mulliken_charges(basis, d, s)
        assert q[0] < 0  # O
        assert q[1] > 0 and q[2] > 0  # H

    def test_methane_carbon_negative(self):
        mol = methane()
        res = RHF(mol).run()
        basis = BasisSet.build(mol, "sto-3g")
        q = mulliken_charges(basis, res.density, overlap(basis))
        assert q[0] < 0
        assert np.allclose(q[1:], q[1], atol=1e-6)  # equivalent hydrogens


class TestOrbitalSummary:
    def test_homo_lumo(self):
        eps = np.array([-2.0, -1.0, 0.5, 1.5])
        s = orbital_summary(eps, 2)
        assert s.homo == -1.0
        assert s.lumo == 0.5
        assert s.gap == 1.5

    def test_full_occupation_no_lumo(self):
        s = orbital_summary(np.array([-1.0, -0.5]), 2)
        assert s.lumo is None
        assert s.gap is None

    def test_invalid_nocc(self):
        with pytest.raises(ValueError):
            orbital_summary(np.array([-1.0]), 2)
