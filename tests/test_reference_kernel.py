"""Differential tests: the class-stacked kernel floor vs the kernels it
replaced (``tests/reference_kernel.py``), plus the Boys table's
property sweep against references that share no code with it."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import cartesian
from reference_engine import class_rows
from reference_eri import (
    boys_quadrature,
    boys_series,
    eri_shell_quartet,
    eri_shell_quartet_os,
)
from reference_kernel import (
    kinetic_block,
    nuclear_attraction_block,
    overlap_block,
    pair_bound,
    per_class_rows,
    reference_class_rows,
)
from scipy import special

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import methane, water
from repro.integrals.boys import _ASYMPTOTIC_X, _STEP, boys_array
from repro.integrals.class_batch import build_class_plan, compute_class_rows
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import one_electron, overlap
from repro.integrals.pairdata import ShellPairData, shell_families
from repro.integrals.schwarz import schwarz_matrix, schwarz_model


def sha256(blocks: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(blocks).tobytes()).hexdigest()


def bases():
    vdz = BasisSet.build(methane(), "vdz-sim")
    return {
        "water/6-31g": BasisSet.build(water(), "6-31g"),
        "methane/vdz-sim": vdz,
        "methane/vdz-sim-cart": cartesian(vdz),
    }


BASES = bases()


def rand_shell(rng, l, pure=False):
    n = int(rng.integers(1, 4))
    return Shell(
        l=l, exps=rng.uniform(0.2, 3.0, n), coefs=rng.uniform(0.3, 1.0, n),
        center=rng.uniform(-1.5, 1.5, 3), atom_index=0, pure=pure,
    )


class TestClassRowsMatchReference:
    @pytest.mark.parametrize("name", BASES)
    def test_every_class_of_a_basis(self, name):
        """All canonical quartets (tau = 0 keeps every class), block by block."""
        engine = MDEngine(BASES[name])
        plan = engine.class_plan(0.0)
        assert len({b.lmax for b in plan.batches}) > 1
        for chunk in plan.chunks():
            for (batch, sel), new in zip(chunk, compute_class_rows(chunk)):
                rows = np.arange(batch.nq)[sel]
                ref = reference_class_rows(batch, rows)
                assert new.shape == ref.shape == (len(rows),) + batch.dims
                assert np.abs(new - ref).max() <= 1e-13

    def test_random_contracted_quartets_up_to_l8(self):
        """50 seeded quartets of random s/p/d shells, (dd|dd) included:
        new == reference <= 1e-13, and MD == OS == class-batched <= 1e-12."""
        rng = np.random.default_rng(20260)
        seen_l = set()
        for trial in range(50):
            ls = [2, 2, 2, 2] if trial == 0 else rng.integers(0, 3, 4)
            shells = [
                rand_shell(rng, int(l), pure=bool(l == 2 and rng.integers(0, 2)))
                for l in ls
            ]
            basis = BasisSet(molecule=water(), shells=shells, name="rand")
            plan = build_class_plan(
                basis, ShellPairData(basis), [(0, 1, 2, 3)]
            )
            (batch,) = plan.batches
            seen_l.add(batch.lmax)
            new = class_rows(batch, np.arange(1))
            ref = reference_class_rows(batch, np.arange(1))
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(new - ref).max() <= 1e-13 * scale
            md = eri_shell_quartet(*shells)
            os_ = eri_shell_quartet_os(*shells)
            assert np.abs(new[0] - md).max() <= 1e-12 * scale
            assert np.abs(new[0] - os_).max() <= 1e-12 * scale
        assert 8 in seen_l and min(seen_l) <= 2

    def test_row_subset_is_bitwise_the_full_sweep(self):
        """A CRC rescue recomputes single rows of a stored chunk: they
        must equal the rows of the whole family sweep bit for bit, each
        row alone and a subset of a member together (sha256)."""
        engine = MDEngine(BASES["water/6-31g"])
        for chunk in engine.class_plan(1e-11).chunks()[:40]:
            for (batch, sel), full in zip(chunk, compute_class_rows(chunk)):
                rows = np.arange(batch.nq)[sel]
                pick = rows[:: max(1, len(rows) // 3)]
                assert sha256(class_rows(batch, pick)) == sha256(
                    full[pick - rows[0]]
                )
                assert sha256(class_rows(batch, rows[-1:])) == sha256(full[-1:])


def family_basis(rng) -> BasisSet:
    """Two or three centres, each with one to three shells of random
    l <= 2 (pure or Cartesian d) on one exponent vector -- an exponent
    family -- with their own contraction coefficients."""
    shells = []
    for centre in range(int(rng.integers(2, 4))):
        n = int(rng.integers(1, 4))
        exps, at = rng.uniform(0.2, 3.0, n), rng.uniform(-1.5, 1.5, 3)
        for l in rng.integers(0, 3, int(rng.integers(1, 4))).tolist():
            shells.append(Shell(
                l=l, exps=exps, coefs=rng.uniform(0.3, 1.0, n), center=at,
                atom_index=centre, pure=bool(l == 2 and rng.integers(0, 2)),
            ))
    return BasisSet(molecule=water(), shells=shells, name="families")


class TestFamilySweep:
    """The family sweep (one Boys/Hermite pass per exponent-family
    quartet) vs the per-class sweep it replaced."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_matches_per_class_oracle_on_shared_exponents(self, seed):
        rng = np.random.default_rng(seed)
        basis = family_basis(rng)
        plan = MDEngine(basis).class_plan(0.0)
        for chunk in plan.chunks():
            for (batch, sel), new in zip(chunk, compute_class_rows(chunk)):
                rows = np.arange(batch.nq)[sel]
                ref = per_class_rows(batch, rows)
                assert np.abs(new - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
                # a row recomputed alone is the row of the whole sweep
                i = int(rng.integers(len(rows)))
                assert sha256(class_rows(batch, rows[i:i + 1])) == sha256(new[i])

    def test_shared_families_shrink_the_sweep(self):
        """water/6-31G: O 2sp and 3sp share their primitive work."""
        basis = BASES["water/6-31g"]
        assert len(set(shell_families(basis).tolist())) < basis.nshells
        plan = MDEngine(basis).class_plan(1e-11)
        assert sum(len(g.quartets) for g in plan.groups) < plan.nquartets

    def test_basis_without_shared_families_stays_per_class(self):
        """vdz-sim shares no exponent vector: the sweep differs from the
        per-class one only by where the coefficients are multiplied."""
        basis = BasisSet.build(water(), "vdz-sim")
        assert len(set(shell_families(basis).tolist())) == basis.nshells
        plan = MDEngine(basis).class_plan(1e-11)
        assert sum(len(g.quartets) for g in plan.groups) == plan.nquartets
        for chunk in plan.chunks():
            for (batch, sel), new in zip(chunk, compute_class_rows(chunk)):
                ref = per_class_rows(batch, np.arange(batch.nq)[sel])
                assert np.abs(new - ref).max() <= 1e-14


class TestOneElectronMatchReference:
    @pytest.mark.parametrize("name", BASES)
    def test_s_t_v_blocks(self, name):
        basis = BASES[name]
        mol = basis.molecule
        charges, positions = mol.numbers.astype(float), mol.coords
        s, t, v = one_electron(basis)
        assert np.array_equal(overlap(basis), s)
        for i, sh_i in enumerate(basis.shells):
            si = basis.shell_slice(i)
            for j, sh_j in enumerate(basis.shells[: i + 1]):
                sj = basis.shell_slice(j)
                refs = (
                    (s, overlap_block(sh_i, sh_j)),
                    (t, kinetic_block(sh_i, sh_j)),
                    (v, nuclear_attraction_block(sh_i, sh_j, charges, positions)),
                )
                for full, ref in refs:
                    assert np.abs(full[si, sj] - ref).max() <= 1e-13
                    if i != j:
                        assert np.array_equal(full[sj, si], full[si, sj].T)

    @pytest.mark.parametrize("name", BASES)
    def test_schwarz_matrix_and_model_diagonal(self, name):
        basis = BASES[name]
        sigma = schwarz_matrix(basis)
        ref = np.array([
            [pair_bound(basis, m, n) for n in range(basis.nshells)]
            for m in range(basis.nshells)
        ])
        assert np.abs(sigma - ref).max() <= 1e-14 * ref.max()
        assert np.allclose(sigma, ref, rtol=1e-12, atol=0)
        assert np.allclose(
            np.diag(schwarz_model(basis)), np.diag(ref), rtol=1e-12, atol=0
        )

    def test_engine_shares_one_pair_cache(self):
        """Schwarz and the class plan expand each pair once; S, T and V
        expand none."""
        basis = BASES["water/6-31g"]
        engine = MDEngine(basis)
        overlap(basis)
        one_electron(basis)
        assert engine.pair_cache.pairs_built == 0
        before = engine.quartets_computed
        engine.schwarz()
        npairs = basis.nshells * (basis.nshells + 1) // 2
        assert engine.pair_cache.pairs_built == npairs
        engine.class_plan(1e-11)
        assert engine.pair_cache.pairs_built == npairs
        assert engine.quartets_computed == before  # Schwarz is not a build


class TestBoysTable:
    """``boys_array`` vs ``scipy.special.hyp1f1``: F_m(x) =
    1F1(m + 1/2; m + 3/2; -x) / (2m + 1).  The gate is *absolute*: past
    x = 35 the asymptotic branch drops a term ~e^{-x}/2x = 1e-17, which
    is 1e-8 *relative* to F_8(35) = 5e-10."""

    MMAX = 24

    @staticmethod
    def sweep():
        nodes = np.arange(0, round(_ASYMPTOTIC_X / _STEP) + 1, 7) * _STEP
        rng = np.random.default_rng(7)
        return np.concatenate([
            nodes,
            nodes[:-1] + 0.5 * _STEP,  # cell midpoints: the largest |d|
            nodes[:-1] + rng.uniform(0, _STEP, nodes.size - 1),
            [0.0, 1e-14, 1e-13, _STEP * (0.5 - 1e-12), _STEP * (0.5 + 1e-12)],
            [_ASYMPTOTIC_X - 1e-9, _ASYMPTOTIC_X, _ASYMPTOTIC_X + 1e-9],
            rng.uniform(35.0, 120.0, 40), [1e3, 1e5],
        ])

    def test_every_order_of_the_full_recursion(self):
        xs = self.sweep()
        got = boys_array(self.MMAX, xs)
        assert got.shape == (xs.size, self.MMAX + 1)
        for m in range(self.MMAX + 1):
            ref = special.hyp1f1(m + 0.5, m + 1.5, -xs) / (2 * m + 1)
            assert np.abs(got[:, m] - ref).max() <= 1e-14, m

    def test_each_order_as_top_order(self):
        """The interpolated order itself, for every m the import-time
        table serves -- and two past it, which build their own table."""
        xs = self.sweep()
        for m in (*range(self.MMAX + 1), 32, 33, 34):
            ref = special.hyp1f1(m + 0.5, m + 1.5, -xs) / (2 * m + 1)
            assert np.abs(boys_array(m, xs)[:, m] - ref).max() <= 1e-14, m

    def test_against_series_and_quadrature(self):
        xs = np.array([0.0, 0.3, 2.0, 11.0, 29.5])
        got = boys_array(8, xs)
        for i, x in enumerate(xs):
            for m in (0, 3, 8):
                assert got[i, m] == pytest.approx(
                    boys_series(m, float(x)), abs=1e-14
                )
                assert got[i, m] == pytest.approx(
                    boys_quadrature(m, float(x)), rel=1e-6
                )

    def test_mixed_batch_equals_separate_batches(self):
        """Small and large arguments interleaved take the split path;
        values must not depend on what else is in the batch."""
        xs = np.array([40.0, 0.2, 36.0, 34.9, 0.0, 500.0, 12.5])
        mixed = boys_array(6, xs)
        for i, x in enumerate(xs):
            assert np.array_equal(mixed[i], boys_array(6, np.array([x]))[0])

    def test_shapes_and_errors(self):
        assert boys_array(3, np.empty(0)).shape == (0, 4)
        assert boys_array(2, np.full((2, 3), 1.5)).shape == (6, 3)
        with pytest.raises(ValueError):
            boys_array(2, np.array([1.0, -1e-300]))
        assert math.isclose(boys_array(0, np.array([0.0]))[0, 0], 1.0)
