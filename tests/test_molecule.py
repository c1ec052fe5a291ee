"""Tests for repro.chem.molecule."""

import numpy as np
import pytest

from repro.chem.builders import water
from repro.chem.elements import BOHR_PER_ANGSTROM
from repro.chem.molecule import Molecule


class TestConstruction:
    def test_from_arrays_shapes(self):
        m = Molecule.from_arrays(["H", "H"], np.array([[0, 0, 0], [0, 0, 1.0]]))
        assert m.natoms == 2
        assert m.coords.shape == (2, 3)

    def test_from_arrays_converts_to_bohr(self):
        m = Molecule.from_arrays(["H", "H"], np.array([[0, 0, 0], [0, 0, 1.0]]))
        assert abs(m.coords[1, 2] - BOHR_PER_ANGSTROM) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Molecule.from_arrays(["H"], np.zeros((2, 3)))

    def test_unknown_element_raises(self):
        with pytest.raises(KeyError):
            Molecule.from_arrays(["Zz"], np.zeros((1, 3)))


class TestProperties:
    def test_nelectrons_neutral(self):
        assert water().nelectrons == 10

    def test_nelectrons_charged(self):
        m = water()
        m.charge = 1
        assert m.nelectrons == 9

    def test_formula_hill_order(self):
        m = Molecule.from_arrays(
            ["O", "C", "H", "H"], np.array([[0, 0, 0], [2, 0, 0], [4, 0, 0], [6, 0, 0]])
        )
        assert m.formula == "CH2O"

    def test_formula_water(self):
        assert water().formula == "H2O"


class TestNuclearRepulsion:
    def test_two_protons(self):
        # two protons at 1 bohr: E = 1 hartree
        m = Molecule.from_arrays(
            ["H", "H"], np.array([[0, 0, 0], [0, 0, 1.0 / BOHR_PER_ANGSTROM]])
        )
        assert abs(m.nuclear_repulsion() - 1.0) < 1e-10

    def test_scales_with_charge(self):
        d = 1.0 / BOHR_PER_ANGSTROM
        m_hh = Molecule.from_arrays(["H", "H"], np.array([[0, 0, 0], [0, 0, d]]))
        m_he = Molecule.from_arrays(["He", "H"], np.array([[0, 0, 0], [0, 0, d]]))
        assert abs(m_he.nuclear_repulsion() - 2 * m_hh.nuclear_repulsion()) < 1e-10

    def test_coincident_nuclei_raise_at_construction(self):
        with pytest.raises(ValueError, match=r"atoms\[1\].*coincides with atoms\[0\]"):
            Molecule.from_arrays(["H", "H"], np.zeros((2, 3)))

    def test_nearly_coincident_nuclei_raise(self):
        coords = np.array([[0.0, 0.0, 0.0], [1e-8, 0.0, 0.0]])
        with pytest.raises(ValueError, match="coincidence tolerance"):
            Molecule.from_arrays(["O", "H"], coords)

    def test_close_but_distinct_nuclei_allowed(self):
        # 0.02 A is pathological but above the coincidence tolerance
        coords = np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]])
        m = Molecule.from_arrays(["H", "H"], coords)
        assert m.nuclear_repulsion() > 0

    def test_water_value_positive(self):
        assert water().nuclear_repulsion() > 0
