"""Tests for repro.chem.elements."""

import pytest

from repro.chem.elements import (
    ANGSTROM_PER_BOHR,
    BOHR_PER_ANGSTROM,
    atomic_number,
    element,
)


class TestElementLookup:
    def test_by_symbol(self):
        assert element("C").number == 6
        assert element("H").number == 1

    def test_case_insensitive(self):
        assert element("c").symbol == "C"
        assert element("he").symbol == "He"

    def test_by_number(self):
        assert element(8).symbol == "O"

    def test_unknown_symbol_raises(self):
        with pytest.raises(KeyError):
            element("Xx")

    def test_unknown_number_raises(self):
        with pytest.raises(KeyError):
            element(99)

    def test_roundtrip(self):
        for z in range(1, 19):
            assert atomic_number(element(z).symbol) == z


class TestUnits:
    def test_bohr_angstrom_inverse(self):
        assert abs(BOHR_PER_ANGSTROM * ANGSTROM_PER_BOHR - 1.0) < 1e-14

    def test_bohr_magnitude(self):
        # 1 Angstrom ~ 1.889 bohr
        assert 1.88 < BOHR_PER_ANGSTROM < 1.90


class TestCovalentRadii:
    def test_positive(self):
        for z in range(1, 19):
            assert element(z).covalent_radius > 0

    def test_carbon_vs_hydrogen(self):
        assert element("C").covalent_radius > element("H").covalent_radius
