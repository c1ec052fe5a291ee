"""Tests for one-electron integrals: S, T, V against analytic references
and against the class-stack assembly the one pass replaced."""

import math

import numpy as np
import pytest
import reference_oneelec
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kinetic, nuclear_attraction, pair_block

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.molecule import Atom, Molecule
from repro.integrals.oneelec import (
    core_hamiltonian,
    one_electron,
    overlap,
)


def overlap_block(sh_a, sh_b):
    return pair_block(overlap, sh_a, sh_b)


def kinetic_block(sh_a, sh_b):
    return pair_block(kinetic, sh_a, sh_b)


def nuclear_attraction_block(sh_a, sh_b, symbol, position):
    """The production V block of one nucleus ``symbol`` at ``position``."""
    nucleus = Molecule(atoms=[Atom(symbol, tuple(position))])
    return pair_block(nuclear_attraction, sh_a, sh_b, molecule=nucleus)


def s_shell(alpha, center=(0, 0, 0)):
    return Shell(l=0, exps=np.array([alpha]), coefs=np.array([1.0]),
                 center=np.array(center, dtype=float), atom_index=0)


def p_shell(alpha, center=(0, 0, 0)):
    return Shell(l=1, exps=np.array([alpha]), coefs=np.array([1.0]),
                 center=np.array(center, dtype=float), atom_index=0)


class TestOverlapAnalytic:
    def test_normalized_diagonal(self):
        for make in (s_shell, p_shell):
            sh = make(0.8)
            blk = overlap_block(sh, sh)
            assert np.allclose(np.diag(blk), 1.0, atol=1e-12)

    def test_two_s_gaussians(self):
        """<a|b> = (4ab/(a+b)^2)^(3/4) exp(-ab/(a+b) R^2) for normalized s."""
        a, b, r = 0.7, 1.9, 1.3
        sha, shb = s_shell(a), s_shell(b, (0, 0, r))
        expected = (4 * a * b / (a + b) ** 2) ** 0.75 * math.exp(
            -a * b / (a + b) * r * r
        )
        assert overlap_block(sha, shb)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_p_orthogonal_to_s_same_center(self):
        blk = overlap_block(s_shell(1.0), p_shell(0.6))
        assert np.allclose(blk, 0.0, atol=1e-14)

    def test_full_matrix_symmetric(self, water_basis):
        s = overlap(water_basis)
        assert np.allclose(s, s.T, atol=1e-14)
        assert np.allclose(np.diag(s), 1.0, atol=1e-10)

    def test_positive_definite(self, water_basis):
        s = overlap(water_basis)
        assert np.linalg.eigvalsh(s).min() > 0


class TestKineticAnalytic:
    def test_single_s_gaussian(self):
        """<a|T|a> = 3a/2 for a normalized s Gaussian."""
        a = 1.7
        blk = kinetic_block(s_shell(a), s_shell(a))
        assert blk[0, 0] == pytest.approx(1.5 * a, rel=1e-12)

    def test_single_p_gaussian(self):
        """<p|T|p> = 5a/2 for a normalized p Gaussian."""
        a = 0.9
        blk = kinetic_block(p_shell(a), p_shell(a))
        assert np.allclose(np.diag(blk), 2.5 * a, atol=1e-12)

    def test_symmetric(self, water_basis):
        t = kinetic(water_basis)
        assert np.allclose(t, t.T, atol=1e-12)

    def test_positive_diagonal(self, water_basis):
        assert np.all(np.diag(kinetic(water_basis)) > 0)


class TestNuclearAnalytic:
    def test_s_gaussian_at_own_nucleus(self):
        """<a| -1/r |a> = -2 sqrt(2a/pi) for normalized s at the nucleus."""
        a = 1.1
        sh = s_shell(a)
        blk = nuclear_attraction_block(sh, sh, "H", (0.0, 0.0, 0.0))
        expected = -2.0 * math.sqrt(2.0 * a / math.pi)
        assert blk[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_far_nucleus_coulomb_limit(self):
        """A distant nucleus sees a point charge: V ~ -Z/R."""
        a, R = 2.0, 40.0
        sh = s_shell(a)
        blk = nuclear_attraction_block(sh, sh, "Li", (0.0, 0.0, R))
        assert blk[0, 0] == pytest.approx(-3.0 / R, rel=1e-8)

    def test_negative_everywhere_diag(self, water_basis):
        v = nuclear_attraction(water_basis)
        assert np.all(np.diag(v) < 0)

    def test_symmetric(self, water_basis):
        v = nuclear_attraction(water_basis)
        assert np.allclose(v, v.T, atol=1e-12)


class TestLiteratureValues:
    def test_h2_sto3g(self, h2_mol):
        """Classic H2/STO-3G values at R = 1.4 a0 (Szabo & Ostlund)."""
        basis = BasisSet.build(h2_mol, "sto-3g")
        s = overlap(basis)
        t = kinetic(basis)
        assert s[0, 1] == pytest.approx(0.6593, abs=1e-3)
        assert t[0, 0] == pytest.approx(0.7600, abs=1e-3)

    def test_core_hamiltonian_is_sum(self, water_basis):
        h = core_hamiltonian(water_basis)
        assert np.allclose(h, kinetic(water_basis) + nuclear_attraction(water_basis))


class TestTranslationInvariance:
    def test_overlap_shift(self):
        sha, shb = s_shell(0.5), p_shell(1.2, (0.4, -0.3, 0.9))
        shift = np.array([1.0, 2.0, -0.5])
        blk1 = overlap_block(sha, shb)
        blk2 = overlap_block(
            sha.at(sha.center + shift, 0), shb.at(shb.center + shift, 0)
        )
        assert np.allclose(blk1, blk2, atol=1e-13)

    def test_kinetic_shift(self):
        sha, shb = p_shell(0.5), p_shell(1.2, (0.4, -0.3, 0.9))
        shift = np.array([-2.0, 0.7, 3.1])
        blk1 = kinetic_block(sha, shb)
        blk2 = kinetic_block(
            sha.at(sha.center + shift, 0), shb.at(shb.center + shift, 0)
        )
        assert np.allclose(blk1, blk2, atol=1e-13)


_coord = st.floats(-2.0, 2.0, allow_nan=False)
_shell = st.builds(
    lambda l, pure, prims, center: Shell(
        l=l, exps=np.array([e for e, _ in prims]), coefs=np.array([c for _, c in prims]),
        center=np.array(center), atom_index=0, pure=pure,
    ),
    st.integers(0, 2), st.booleans(),
    st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(0.1, 1.0)), min_size=1, max_size=6),
    st.tuples(_coord, _coord, _coord),
)
_nuclei = st.lists(
    st.tuples(st.sampled_from(["H", "C", "O"]), st.tuples(_coord, _coord, _coord)),
    min_size=1, max_size=3,
)


class TestOnePassAgainstReplacedCode:
    """The one pass against ``tests/reference_oneelec.py`` (the ERI pair
    data's class stacks, three passes per class) on random shells: s, p
    and d, pure and Cartesian, 1-6 primitives, random centres and nuclei."""

    @settings(max_examples=40, deadline=None)
    @given(shells=st.lists(_shell, min_size=1, max_size=5), nuclei=_nuclei)
    def test_matches_the_class_stack_assembly(self, shells, nuclei):
        # the k-th nucleus 5 bohr further along x: never coincident
        atoms = [Atom(s, (x + 5.0 * k, y, z)) for k, (s, (x, y, z)) in enumerate(nuclei)]
        basis = BasisSet(molecule=Molecule(atoms=atoms), shells=shells, name="random")
        s, t, v = one_electron(basis)
        assert np.abs(s - reference_oneelec.overlap(basis)).max() <= 1e-13
        assert np.abs(t - reference_oneelec.kinetic(basis)).max() <= 1e-13
        assert np.abs(v - reference_oneelec.nuclear_attraction(basis)).max() <= 1e-13
        assert np.array_equal(overlap(basis), s)
        assert np.array_equal(core_hamiltonian(basis), t + v)

    @settings(max_examples=25, deadline=None)
    @given(shells=st.lists(_shell, min_size=1, max_size=4), shift=st.tuples(_coord, _coord, _coord))
    def test_s_and_t_are_translation_invariant(self, shells, shift):
        """A rigid translation moves S and T by round-off only: their
        arithmetic sees the centres through ``A - B``."""
        mol = Molecule(atoms=[Atom("H", (0.0, 0.0, 0.0))])
        moved = [sh.at(sh.center + np.array(shift), 0) for sh in shells]
        (s, t, _), (s2, t2, _) = (
            one_electron(BasisSet(molecule=mol, shells=shs, name="random"))
            for shs in (shells, moved)
        )
        assert np.abs(s2 - s).max() <= 1e-12
        assert np.abs(t2 - t).max() <= 1e-12
