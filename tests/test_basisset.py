"""Tests for BasisSet construction, indexing, and permutation."""

import numpy as np
import pytest

from repro.chem.basis.basisset import BASIS_REGISTRY, BasisSet, element_shells
from repro.chem.builders import alkane, graphene_flake, methane, water


def function_permutation(basis: BasisSet) -> np.ndarray:
    """Entry ``k`` is the index, in the unpermuted (atom-order) basis, of
    the permuted ``basis``'s function ``k``."""
    original = BasisSet.build(basis.molecule, basis.name)
    perm = np.empty(basis.nbf, dtype=int)
    for new_i, orig_i in enumerate(basis.order):
        src = original.shell_slice(int(orig_i))
        perm[basis.shell_slice(new_i)] = np.arange(src.start, src.stop)
    return perm


class TestElementShells:
    def test_sp_expansion(self):
        shells = element_shells("sto-3g", "C")
        ls = [l for l, _, _ in shells]
        assert ls == [0, 0, 1]  # 1s core + SP split into s and p

    def test_sp_shares_exponents(self):
        shells = element_shells("sto-3g", "O")
        assert shells[1][1] == shells[2][1]

    def test_unknown_basis(self):
        with pytest.raises(KeyError):
            element_shells("nope", "H")

    def test_unknown_element(self):
        with pytest.raises(KeyError):
            element_shells("vdz-sim", "Ar")


class TestBuild:
    def test_water_sto3g_counts(self):
        b = BasisSet.build(water(), "sto-3g")
        assert b.nshells == 5  # O: 1s + 2s + 2p; H: 1s each
        assert b.nbf == 7

    def test_vdz_sim_structure(self):
        b = BasisSet.build(methane(), "vdz-sim")
        # C: 3s2p1d = 6 shells/14 bf; 4 H: 2s1p = 3 shells/5 bf
        assert b.nshells == 6 + 4 * 3
        assert b.nbf == 14 + 4 * 5

    def test_paper_shell_counts(self):
        """Table II: C100H202 with cc-pVDZ structure has 1206 shells/2410 bf."""
        b = BasisSet.build(alkane(100), "vdz-sim")
        assert b.nshells == 1206
        assert b.nbf == 2410

    def test_paper_shell_counts_graphene(self):
        b = BasisSet.build(graphene_flake(4), "vdz-sim")
        assert b.nshells == 648
        assert b.nbf == 1464

    def test_registry_names(self):
        assert set(BASIS_REGISTRY) == {"sto-3g", "6-31g", "vdz-sim"}


class TestIndexing:
    @pytest.fixture(scope="class")
    def basis(self):
        return BasisSet.build(water(), "sto-3g")

    def test_offsets_contiguous(self, basis):
        assert basis.offsets[0] == 0
        assert basis.offsets[-1] == basis.nbf
        assert np.all(np.diff(basis.offsets) == basis.shell_sizes())

    def test_shell_slice(self, basis):
        for i in range(basis.nshells):
            s = basis.shell_slice(i)
            assert s.stop - s.start == basis.shells[i].nbf

    def test_atom_of_shell(self, basis):
        assert basis.atom_of_shell.tolist() == [0, 0, 0, 1, 2]

    def test_atom_shell_lists(self, basis):
        lists = basis.atom_shell_lists()
        assert lists == [[0, 1, 2], [3], [4]]

    def test_min_exponents_positive(self, basis):
        assert np.all(basis.min_exponents() > 0)


class TestPermutation:
    @pytest.fixture(scope="class")
    def basis(self):
        return BasisSet.build(water(), "sto-3g")

    def test_identity_permutation(self, basis):
        p = basis.permuted(np.arange(basis.nshells))
        assert [s.l for s in p.shells] == [s.l for s in basis.shells]

    def test_reverse_permutation(self, basis):
        order = np.arange(basis.nshells)[::-1]
        p = basis.permuted(order)
        assert p.shells[0] is basis.shells[-1]
        assert p.nbf == basis.nbf

    def test_invalid_permutation_raises(self, basis):
        with pytest.raises(ValueError):
            basis.permuted(np.zeros(basis.nshells, dtype=int))

    def test_function_permutation_maps_overlap(self, basis):
        """S computed in a permuted basis equals permuted reference S."""
        from repro.integrals.oneelec import overlap

        order = np.arange(basis.nshells)[::-1]
        pb = basis.permuted(order)
        s_ref = overlap(basis)
        s_perm = overlap(pb)
        fp = function_permutation(pb)
        assert np.allclose(s_perm, s_ref[np.ix_(fp, fp)], atol=1e-12)

    def test_double_permutation_composes(self, basis):
        ns = basis.nshells
        rng = np.random.default_rng(0)
        o1 = rng.permutation(ns)
        o2 = rng.permutation(ns)
        p2 = basis.permuted(o1).permuted(o2)
        assert np.array_equal(p2.order, o1[o2])
