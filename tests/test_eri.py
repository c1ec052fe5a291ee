"""Tests for the ERI kernels: the batched Obara-Saika kernel vs its
per-primitive oracle, symmetries and known values (per-primitive MD)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_eri import eri_shell_quartet, eri_shell_quartet_os, eri_tensor
from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import water
from repro.integrals.class_batch import build_class_plan
from repro.integrals.eri_os import os_class_rows


def rand_shell(rng, l, pure=False):
    n = int(rng.integers(1, 3))
    return Shell(
        l=l,
        exps=rng.uniform(0.2, 3.0, n),
        coefs=rng.uniform(0.3, 1.0, n),
        center=rng.uniform(-1.5, 1.5, 3),
        atom_index=0,
        pure=pure,
    )


class TestKnownValues:
    def test_single_s_gaussian_self_repulsion(self):
        """(aa|aa) = sqrt(2a/pi) * ... : analytic for one normalized s.

        (ss|ss) with all four the same normalized primitive equals
        sqrt(2/pi) * sqrt(a) * 2/sqrt(2) ... verified against the closed
        form 2 sqrt(a / (2 pi)) * 2 / sqrt(2)?  Use the standard result
        (00|00) = sqrt(2 a / pi) * (2/sqrt(2)) / ... -- evaluated via the
        Boys-function formula directly instead.
        """
        a = 1.3
        sh = Shell(l=0, exps=np.array([a]), coefs=np.array([1.0]),
                   center=np.zeros(3), atom_index=0)
        val = eri_shell_quartet(sh, sh, sh, sh)[0, 0, 0, 0]
        # closed form: (2 pi^{5/2} / (p q sqrt(p+q))) * N^4 with p=q=2a,
        # N = (2a/pi)^{3/4}
        n4 = (2 * a / math.pi) ** 3
        expected = 2 * math.pi**2.5 / (4 * a * a * math.sqrt(4 * a)) * n4
        assert val == pytest.approx(expected, rel=1e-12)

    def test_h2_sto3g_literature(self, h2_mol):
        """Szabo-Ostlund H2/STO-3G two-electron integrals at R=1.4."""
        basis = BasisSet.build(h2_mol, "sto-3g")
        eri = eri_tensor(basis)
        # tolerances allow for the tiny geometry difference between
        # 0.7414 A and Szabo's R = 1.4 a0 exactly
        assert eri[0, 0, 0, 0] == pytest.approx(0.7746, abs=5e-4)
        assert eri[0, 0, 1, 1] == pytest.approx(0.5697, abs=5e-4)
        assert eri[1, 0, 0, 0] == pytest.approx(0.4441, abs=1e-3)
        assert eri[1, 0, 1, 0] == pytest.approx(0.2970, abs=1e-3)

    def test_distant_charge_distributions_coulomb_limit(self):
        """(aa|bb) -> 1/R as the two s distributions separate."""
        r = 30.0
        sha = Shell(l=0, exps=np.array([1.5]), coefs=np.array([1.0]),
                    center=np.zeros(3), atom_index=0)
        shb = Shell(l=0, exps=np.array([0.9]), coefs=np.array([1.0]),
                    center=np.array([0.0, 0.0, r]), atom_index=1)
        val = eri_shell_quartet(sha, sha, shb, shb)[0, 0, 0, 0]
        assert val == pytest.approx(1.0 / r, rel=1e-8)


def batched_os(shells) -> np.ndarray:
    """The block (ab|cd) of four shells on the batched Obara-Saika kernel
    (a one-row class plan)."""
    basis = BasisSet(molecule=water(), shells=list(shells), name="rand")
    (batch,) = build_class_plan(basis, None, [(0, 1, 2, 3)]).batches
    return os_class_rows(basis, batch, np.arange(1))[0]


class TestMDvsOS:
    """The batched Obara-Saika kernel vs the per-primitive one it
    replaced (``reference_eri``); MD vs OS over whole plans is
    ``tests/test_engine.py``."""

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_random_quartets(self, seed):
        rng = np.random.default_rng(seed)
        ls = rng.integers(0, 3, 4)
        shs = [rand_shell(rng, int(l), pure=bool(l == 2 and rng.integers(0, 2)))
               for l in ls]
        a = eri_shell_quartet_os(*shs)
        b = batched_os(shs)
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())

    def test_pure_d_quartet(self):
        rng = np.random.default_rng(42)
        shs = [
            rand_shell(rng, 2, pure=True),
            rand_shell(rng, 1),
            rand_shell(rng, 2, pure=True),
            rand_shell(rng, 0),
        ]
        a = eri_shell_quartet(*shs)
        b = batched_os(shs)
        assert a.shape == b.shape == (5, 3, 5, 1)
        assert np.allclose(a, b, atol=1e-13)


class TestPermutationalSymmetry:
    """Eq (4): (ij|kl) = (ji|kl) = (ij|lk) = (kl|ij)."""

    @pytest.fixture(scope="class")
    def quartet(self):
        rng = np.random.default_rng(7)
        shs = [rand_shell(rng, l) for l in (1, 2, 0, 1)]
        return shs

    def test_bra_swap(self, quartet):
        a, b, c, d = quartet
        blk = eri_shell_quartet(a, b, c, d)
        swapped = eri_shell_quartet(b, a, c, d)
        assert np.allclose(blk, swapped.transpose(1, 0, 2, 3), atol=1e-13)

    def test_ket_swap(self, quartet):
        a, b, c, d = quartet
        blk = eri_shell_quartet(a, b, c, d)
        swapped = eri_shell_quartet(a, b, d, c)
        assert np.allclose(blk, swapped.transpose(0, 1, 3, 2), atol=1e-13)

    def test_bra_ket_exchange(self, quartet):
        a, b, c, d = quartet
        blk = eri_shell_quartet(a, b, c, d)
        swapped = eri_shell_quartet(c, d, a, b)
        assert np.allclose(blk, swapped.transpose(2, 3, 0, 1), atol=1e-13)

    def test_full_tensor_symmetries(self, water_basis):
        eri = eri_tensor(water_basis)
        assert np.allclose(eri, eri.transpose(1, 0, 2, 3), atol=1e-12)
        assert np.allclose(eri, eri.transpose(0, 1, 3, 2), atol=1e-12)
        assert np.allclose(eri, eri.transpose(2, 3, 0, 1), atol=1e-12)


class TestPositivity:
    """(ij|ij) >= 0: the ERI supermatrix is positive semidefinite."""

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_diagonal_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        sha = rand_shell(rng, int(rng.integers(0, 3)))
        shb = rand_shell(rng, int(rng.integers(0, 3)))
        blk = eri_shell_quartet(sha, shb, sha, shb)
        na, nb = blk.shape[0], blk.shape[1]
        diag = np.einsum("ijij->ij", blk.reshape(na, nb, na, nb))
        assert np.all(diag > -1e-12)
