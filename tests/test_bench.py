"""Tests for the benchmark harness and experiment drivers (smoke level)."""

import pytest

from repro.bench.harness import (
    CORE_COUNTS,
    benchmark_molecules,
    format_table,
    geometric_speedups,
    molecule_setup,
)
from repro.bench.paper_data import SHAPE_TARGETS, TABLE2_MOLECULES
from repro.chem.builders import alkane


class TestHarness:
    def test_four_molecules(self):
        mols = benchmark_molecules()
        assert len(mols) == 4

    def test_setup_cached(self):
        m = alkane(6)
        s1 = molecule_setup("x", m)
        s2 = molecule_setup("x", m)
        assert s1 is s2

    def test_same_formula_different_geometry_not_shared(self):
        # two C6H14 geometries must not share screening/cost state
        m1 = alkane(6)
        coords = m1.coords_angstrom.copy()
        coords[:, 0] *= 1.25  # stretched conformer, same formula
        from repro.chem.molecule import Molecule

        m2 = Molecule.from_arrays(m1.symbols, coords, name="stretched")
        assert m1.formula == m2.formula
        assert m1.geometry_hash() != m2.geometry_hash()
        s1 = molecule_setup("x", m1)
        s2 = molecule_setup("x", m2)
        assert s1 is not s2
        assert s1.screen is not s2.screen

    def test_geometry_hash_stable(self):
        assert alkane(6).geometry_hash() == alkane(6).geometry_hash()

    def test_setup_reordered(self):
        s = molecule_setup("y", alkane(7))
        assert s.basis.order is not None
        assert s.costs.total_eris > 0

    def test_alkane_config_has_faster_nwchem_tint(self):
        s = molecule_setup("z", alkane(6))
        assert s.config.t_int_nwchem < s.config.t_int_gtfock
        assert s.is_alkane

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_geometric_speedups(self):
        sp = geometric_speedups({12: 100.0, 48: 25.0}, 12)
        assert sp[48] == pytest.approx(4.0)
        with pytest.raises(KeyError):
            geometric_speedups({12: 1.0}, 24)


class TestPaperData:
    def test_table2_consistency(self):
        """Recorded paper counts obey the cc-pVDZ shell arithmetic."""
        for name, d in TABLE2_MOLECULES.items():
            nc = int(name[1 : name.index("H")])
            nh = int(name[name.index("H") + 1 :])
            assert d["atoms"] == nc + nh
            assert d["shells"] == 6 * nc + 3 * nh
            assert d["functions"] == 14 * nc + 5 * nh

    def test_shape_targets_present(self):
        assert len(SHAPE_TARGETS) >= 8

    def test_core_counts_span_paper_range(self):
        assert CORE_COUNTS[0] == 12
        assert CORE_COUNTS[-1] == 3888


class TestExperimentsSmoke:
    """Cheap smoke checks; the full tables run in benchmarks/."""

    def test_table5_runs(self):
        from repro.bench.experiments import table5_t_int

        rep = table5_t_int(nquartets=4)
        assert set(rep.data) == {"C24H12", "C10H22"}
        for vals in rep.data.values():
            assert vals["MD"] > 0 and vals["OS"] > 0

    def test_figure1_runs(self):
        from repro.bench.experiments import figure1_footprint

        rep = figure1_footprint()
        assert rep.data["ratio"] < rep.data["naive_ratio"]

    def test_run_cell_cached(self):
        from repro.bench.experiments import run_cell
        from repro.bench.harness import all_setups

        setup = all_setups()[0]
        a = run_cell(setup, "gtfock", 48)
        b = run_cell(setup, "gtfock", 48)
        assert a is b
