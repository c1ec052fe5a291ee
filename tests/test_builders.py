"""Tests for the geometry generators (graphene flakes, alkanes, demos)."""

import numpy as np
import pytest

from repro.chem.builders import (
    CC_AROMATIC,
    CC_SINGLE,
    CH_BOND,
    DEMO_MOLECULES,
    PAPER_MOLECULES,
    SCALED_MOLECULES,
    alkane,
    benzene,
    graphene_flake,
    h2,
    methane,
    molecule_by_name,
    paper_molecule,
    water,
    water_cluster,
)
from repro.chem.elements import BOHR_PER_ANGSTROM


class TestGrapheneFlake:
    @pytest.mark.parametrize("n,nc,nh", [(1, 6, 6), (2, 24, 12), (3, 54, 18), (4, 96, 24)])
    def test_formula_series(self, n, nc, nh):
        m = graphene_flake(n)
        assert sum(1 for s in m.symbols if s == "C") == nc
        assert sum(1 for s in m.symbols if s == "H") == nh

    def test_coronene_named(self):
        assert graphene_flake(2).formula == "C24H12"

    def test_planar(self):
        z = graphene_flake(3).coords[:, 2]
        assert np.max(np.abs(z)) < 1e-10

    def test_min_distance_is_ch_bond(self):
        m = graphene_flake(2)
        d_min = m.min_interatomic_distance()
        assert abs(d_min - CH_BOND * BOHR_PER_ANGSTROM) < 1e-6

    def test_cc_bond_lengths(self):
        m = graphene_flake(2)
        carbons = m.coords[[i for i, s in enumerate(m.symbols) if s == "C"]]
        # every carbon has a neighbor at exactly the aromatic bond length
        target = CC_AROMATIC * BOHR_PER_ANGSTROM
        for i in range(len(carbons)):
            d = np.linalg.norm(carbons - carbons[i], axis=1)
            d = d[d > 1e-6]
            assert abs(d.min() - target) < 1e-6

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            graphene_flake(0)


class TestAlkane:
    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    def test_formula(self, n):
        m = alkane(n)
        assert sum(1 for s in m.symbols if s == "C") == n
        assert sum(1 for s in m.symbols if s == "H") == 2 * n + 2

    def test_methane_special_case(self):
        assert alkane(1).formula == "CH4"

    def test_backbone_bond_length(self):
        m = alkane(10)
        carbons = m.coords[:10]
        target = CC_SINGLE * BOHR_PER_ANGSTROM
        for i in range(9):
            d = np.linalg.norm(carbons[i + 1] - carbons[i])
            assert abs(d - target) < 1e-6

    def test_ch_bond_lengths(self):
        m = alkane(6)
        carbons = m.coords[:6]
        hydrogens = m.coords[6:]
        target = CH_BOND * BOHR_PER_ANGSTROM
        for hpos in hydrogens:
            d = np.linalg.norm(carbons - hpos, axis=1).min()
            assert abs(d - target) < 1e-6

    def test_no_atom_clashes(self):
        assert alkane(20).min_interatomic_distance() > 1.5  # bohr

    def test_linear_extent_grows(self):
        def span(m):
            return np.ptp(m.coords[:, 0])

        assert span(alkane(20)) > span(alkane(10)) * 1.8

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            alkane(0)


class TestSmallMolecules:
    def test_h2_bond(self):
        m = h2(0.75)
        assert abs(m.min_interatomic_distance() - 0.75 * BOHR_PER_ANGSTROM) < 1e-10

    def test_water_angle(self):
        m = water()
        r = m.coords
        v1, v2 = r[1] - r[0], r[2] - r[0]
        cos = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert abs(np.degrees(np.arccos(cos)) - 104.52) < 0.01

    def test_methane_tetrahedral(self):
        m = methane()
        r = m.coords
        for i in range(1, 5):
            assert abs(np.linalg.norm(r[i]) - CH_BOND * BOHR_PER_ANGSTROM) < 1e-6

    def test_benzene(self):
        assert benzene().formula == "C6H6"

    def test_water_cluster_count(self):
        m = water_cluster(2, 2, 1)
        assert m.natoms == 12
        assert m.formula == "H8O4"


class TestRegistry:
    def test_paper_molecules(self):
        assert paper_molecule("C96H24").formula == "C96H24"
        assert paper_molecule("C24H12").formula == "C24H12"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            paper_molecule("C999")

    def test_one_resolver_knows_every_name(self):
        """Demo and registry names resolve through ``molecule_by_name``,
        the only name table ``src`` keeps."""
        assert molecule_by_name("water").formula == "H2O"
        for name in DEMO_MOLECULES:
            assert molecule_by_name(name).natoms > 0
        for name in (*SCALED_MOLECULES, "C96H24"):
            assert molecule_by_name(name).formula == name

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(KeyError) as exc_info:
            molecule_by_name("C999")
        for name in (*DEMO_MOLECULES, *PAPER_MOLECULES, *SCALED_MOLECULES):
            assert name in str(exc_info.value)

    def test_no_second_name_table_in_src(self):
        from pathlib import Path

        import repro

        hits = [
            path for path in Path(repro.__file__).parent.rglob("*.py")
            if '"water": builders.water' in path.read_text()
        ]
        assert hits == []
