"""Tests for the RHF driver: literature energies, convergence, variants."""

import numpy as np
import pytest

from metamorphic import permuted, rigid_motion
from repro.chem.builders import h2, water
from repro.chem.molecule import Molecule
from repro.scf.hf import RHF


@pytest.fixture(scope="module")
def water_scf():
    return RHF(water()).run()


class TestLiteratureEnergies:
    def test_h2_sto3g(self):
        """RHF/STO-3G H2 at 0.7414 A: -1.11668 hartree (textbook value)."""
        res = RHF(h2(0.7414)).run()
        assert res.converged
        assert res.energy == pytest.approx(-1.11668, abs=2e-4)

    def test_water_sto3g(self, water_scf):
        """RHF/STO-3G water: about -74.963 hartree at this geometry."""
        assert water_scf.converged
        assert water_scf.energy == pytest.approx(-74.9629, abs=2e-3)

    def test_h2_dissociation_curve_minimum(self):
        """The energy minimum sits near the equilibrium bond length."""
        energies = {
            r: RHF(h2(r)).run().energy for r in (0.55, 0.7414, 1.1)
        }
        assert energies[0.7414] < energies[0.55]
        assert energies[0.7414] < energies[1.1]


class TestConvergenceBehavior:
    def test_energy_history_converges(self, water_scf):
        hist = water_scf.energy_history
        assert abs(hist[-1] - water_scf.energy) < 1e-5
        # late-iteration changes are tiny
        assert abs(hist[-1] - hist[-2]) < 1e-6

    def test_density_idempotent(self, water_scf):
        """Converged D satisfies D S D = D (nocc-projector property)."""
        from repro.integrals.oneelec import overlap
        from repro.chem.basis.basisset import BasisSet

        s = overlap(BasisSet.build(water(), "sto-3g"))
        d = water_scf.density
        assert np.allclose(d @ s @ d, d, atol=1e-6)

    def test_density_trace_is_nocc(self, water_scf):
        from repro.integrals.oneelec import overlap
        from repro.chem.basis.basisset import BasisSet

        s = overlap(BasisSet.build(water(), "sto-3g"))
        assert np.trace(water_scf.density @ s) == pytest.approx(5.0, abs=1e-8)

    @pytest.mark.parametrize("mol", [water, h2])
    def test_homo_lumo_gap_off_a_minimal_basis(self, mol):
        """nocc is Tr(DS), not Tr(D): 6-31G is far from orthonormal."""
        rhf = RHF(mol(), basis_name="6-31g")
        res = rhf.run()
        eps = res.orbital_energies
        assert res.nocc == rhf.nocc == mol().nelectrons // 2
        assert eps[res.nocc] - eps[res.nocc - 1] > 0.5

    def test_without_diis_same_energy(self):
        e1 = RHF(h2(0.7414), use_diis=True).run().energy
        e2 = RHF(h2(0.7414), use_diis=False).run().energy
        assert e1 == pytest.approx(e2, abs=1e-7)

    def test_purification_density_method(self):
        e_diag = RHF(h2(0.7414)).run().energy
        e_pur = RHF(h2(0.7414), density_method="purify").run().energy
        assert e_pur == pytest.approx(e_diag, abs=1e-7)


class TestValidation:
    def test_odd_electrons_rejected(self):
        m = Molecule.from_arrays(["H"], np.zeros((1, 3)))
        with pytest.raises(ValueError):
            RHF(m)

    def test_cation_allowed(self):
        m = water()
        m.charge = 2  # 8 electrons, closed shell
        res = RHF(m, max_iter=50).run()
        assert res.energy > RHF(water()).run().energy  # cation is higher

    def test_bad_density_method(self):
        with pytest.raises(ValueError):
            RHF(water(), density_method="magic")

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        """No iteration means no SCF energy: it used to return the
        core-guess energy as an unconverged result."""
        with pytest.raises(ValueError, match="max_iter"):
            RHF(water(), max_iter=max_iter)

    def test_variational_bound(self, water_scf):
        """HF energy must be above the exact ground state (-76.4)."""
        assert -76.5 < water_scf.energy < -70.0


class TestMetamorphic:
    """Properties no golden number can pin: the energy of a molecule does
    not depend on where it sits, how it is turned, or the order its
    atoms are listed in (every shell index and class-plan row moves)."""

    @pytest.mark.parametrize("seed", [2, 3, 5])  # none permutes to itself
    def test_energy_invariant_under_rigid_motion_and_permutation(self, seed):
        ref = RHF(water()).run()
        images = {
            "rigid motion": rigid_motion(water(), seed),
            "atom permutation": permuted(water(), seed),
            "both": permuted(rigid_motion(water(), seed), seed + 100),
        }
        for what, mol in images.items():
            res = RHF(mol).run()
            assert res.converged, what
            assert abs(res.energy - ref.energy) <= 1e-9, what
        # the images really differ from the original
        for mol in images.values():
            assert not np.allclose(mol.coords, water().coords)
