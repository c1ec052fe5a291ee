"""Tests for shell-pair data caching and the batched ERI kernel."""

import hashlib
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import ReferenceMDEngine, class_rows, quartet_block
from reference_eri import eri_shell_quartet, eri_shell_quartet_os
from reference_pairdata import build_pair_data
from repro import obs
from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import water, water_cluster
from repro.integrals.class_batch import build_class_plan, canonical_quartet_array
from repro.integrals.engine import MDEngine, OSEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.integrals.pairdata import ShellPairData
from repro.obs.profile import PHASE_PAIRDATA, PhaseProfiler
from repro.scf.fock import build_jk


def rand_shell(rng, l, pure=False, nprim=None):
    n = nprim or int(rng.integers(1, 4))
    return Shell(
        l=l,
        exps=rng.uniform(0.2, 3.0, n),
        coefs=rng.uniform(0.3, 1.0, n),
        center=rng.uniform(-1.5, 1.5, 3),
        atom_index=0,
        pure=pure,
    )


def kernel_block(shells) -> np.ndarray:
    """``(ab|cd)`` of four shells through the class kernel: a one-row
    plan over a throwaway four-shell basis."""
    basis = BasisSet(molecule=water(), shells=list(shells), name="quartet")
    return quartet_block(MDEngine(basis), 0, 1, 2, 3)


class TestBatchedKernel:
    """The class kernel must agree with the seed per-primitive path and
    with the independent Obara-Saika formulation."""

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_seed_and_os(self, seed):
        rng = np.random.default_rng(seed)
        ls = rng.integers(0, 3, 4)  # random s/p/d quartets
        shs = [rand_shell(rng, int(l)) for l in ls]
        batched = kernel_block(shs)
        reference = eri_shell_quartet(*shs)
        os_ = eri_shell_quartet_os(*shs)
        assert np.allclose(batched, reference, atol=1e-10, rtol=1e-10)
        assert np.allclose(batched, os_, atol=1e-10, rtol=1e-10)

    def test_pure_d_shells(self):
        rng = np.random.default_rng(3)
        shs = [
            rand_shell(rng, 2, pure=True),
            rand_shell(rng, 1),
            rand_shell(rng, 2, pure=True),
            rand_shell(rng, 0),
        ]
        batched = kernel_block(shs)
        assert batched.shape == (5, 3, 5, 1)
        assert np.allclose(batched, eri_shell_quartet(*shs), atol=1e-12)

    def test_precomputed_pair_data_gives_same_block(self):
        """A row swept with the rest of its class -- over pair data the
        whole class stacked, in a family sweep shared with the other
        shell of each sp family -- is bitwise the row swept alone."""
        rng = np.random.default_rng(9)
        shs = []
        for _ in range(3):  # three sp families: a p and an s shell each
            p = rand_shell(rng, 1, nprim=2)
            shs += [p, replace(p, l=0, coefs=rng.uniform(0.3, 1.0, 2))]
        basis = BasisSet(molecule=water(), shells=shs, name="pairs")
        quartets = canonical_quartet_array(np.ones((6, 6)), 0.0)
        plan = build_class_plan(basis, ShellPairData(basis), quartets)
        assert {g.lmax for g in plan.groups} == {4}
        assert sum(len(g.quartets) for g in plan.groups) < plan.nquartets
        alone = MDEngine(basis)
        for batch in plan.batches:
            swept = class_rows(batch, np.arange(batch.nq))
            for row, quartet in zip(swept, batch.quartets.tolist()):
                assert np.array_equal(row, quartet_block(alone, *quartet))


class TestShellPairData:
    def test_each_pair_built_once(self, water_basis):
        cache = ShellPairData(water_basis)
        cache.expand([1], [0])
        k, slot = cache.klass[1, 0], cache.slot[1, 0]
        stack = cache.stacks[k]
        cache.expand([1, 1], [0, 0])
        assert cache.stacks[k] is stack and cache.slot[1, 0] == slot
        assert cache.pairs_built == 1
        cache.expand([0], [1])  # opposite orientation is a distinct record
        assert cache.pairs_built == 2
        assert (cache.klass >= 0).sum() == 2

    def test_md_engine_reuses_pair_cache(self, water_basis):
        eng = MDEngine(water_basis)
        ns = water_basis.nshells
        for m in range(ns):
            for n in range(m + 1):
                quartet_block(eng, m, n, m, n)
        # ns*(ns+1)/2 distinct ordered pairs, each expanded exactly once
        assert eng.pair_cache.pairs_built == ns * (ns + 1) // 2

    def test_unbatched_engine_matches_batched(self, water_basis):
        batched = MDEngine(water_basis)
        seed = ReferenceMDEngine(water_basis)
        assert batched.class_kernel and not seed.class_kernel
        rng = np.random.default_rng(4)
        for _ in range(8):
            m, n, p, q = (int(i) for i in rng.integers(0, water_basis.nshells, 4))
            assert np.allclose(
                quartet_block(batched, m, n, p, q),
                quartet_block(seed, m, n, p, q), atol=1e-12,
            )


def pair_digest(arrays) -> str:
    """sha256 over arrays (shape, dtype, bytes)."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr((arr.shape, arr.dtype.str)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def oracle_slot(rec) -> list[np.ndarray]:
    """A one-pair record as its slot of a class stack and its primitive
    table hold it: E contracted bra-side and, sign folded, ket-side."""
    ab = rec.basis_e.shape[1]
    sign = (-1.0) ** (rec.tt + rec.uu + rec.vv)
    return [rec.coef, rec.p, rec.P, rec.E,
            rec.basis_e.transpose(1, 2, 0).reshape(ab, -1),
            (rec.basis_e * sign).transpose(2, 0, 1).reshape(-1, ab),
            rec.tt, rec.uu, rec.vv, rec.p, rec.P.T]


def cache_slot(cache, i: int, j: int) -> list[np.ndarray]:
    """Pair ``(i, j)``'s arrays, read from its class stack and table."""
    stack, s = cache.stacks[cache.klass[i, j]], cache.slot[i, j]
    p, P = cache.prims[stack.npp]
    return [stack.coef[s], stack.p[s], stack.P[s], stack.E[s], stack.bra_e[s],
            stack.ket_e[s], stack.tt, stack.uu, stack.vv,
            p[cache.pslot[i, j]], P[:, cache.pslot[i, j]]]


class TestBatchedPairData:
    """``ShellPairData.expand`` expands the missing pairs a class at a
    time; every array of a pair's slot must be bitwise the one-pair
    expansion it replaced."""

    def test_every_array_matches_one_pair_oracle(self):
        rng = np.random.default_rng(12)
        shs = []
        for l, pure, nprim in [(0, False, 3), (1, False, 2), (2, False, 1),
                               (2, True, 2), (2, True, 2), (1, False, 3)]:
            shs.append(rand_shell(rng, l, pure=pure, nprim=nprim))
        for _ in range(2):  # sp families: an s shell on a p shell's exponents
            p = rand_shell(rng, 1, nprim=3)
            shs += [p, replace(p, l=0, coefs=rng.uniform(0.3, 1.0, 3))]
        basis = BasisSet(molecule=water(), shells=shs, name="mixed")
        ij = [(i, j) for i in range(len(shs)) for j in range(len(shs))]  # both orientations
        cache = ShellPairData(basis)
        cache.expand(*np.array(ij[::2]).T)  # two passes: stacks grow
        cache.expand(*np.array(ij).T)
        for i, j in ij:
            assert pair_digest(cache_slot(cache, i, j)) == pair_digest(
                oracle_slot(build_pair_data(shs[i], shs[j]))), (i, j)
        assert cache.pairs_built == len(ij) == (cache.klass >= 0).sum()

    def test_pairs_built_on_the_direct_scf_system(self):
        """(H2O)5/STO-3G: Schwarz and one J/K build expand every
        canonical pair once, as the per-pair cache did (325); S and
        H^core expand none."""
        eng = MDEngine(BasisSet.build(water_cluster(5, 1, 1), "sto-3g"))
        ns = eng.basis.nshells
        overlap(eng.basis)
        core_hamiltonian(eng.basis)
        assert eng.pair_cache.pairs_built == 0
        build_jk(eng, np.eye(eng.basis.nbf))
        assert eng.pair_cache.pairs_built == ns * (ns + 1) // 2 == 325

    def test_one_phase_per_batch(self, water_basis):
        cache, prof = ShellPairData(water_basis), PhaseProfiler()
        ns = water_basis.nshells
        with obs.session(profiler=prof):
            cache.expand(*np.tril_indices(ns))
            cache.expand([1, 2], [0, 2])  # all expanded: no phase
            cache.expand([0, 0], [1, 2])
        assert prof.stats[PHASE_PAIRDATA].calls == 2
        assert cache.pairs_built == ns * (ns + 1) // 2 + 2


class TestEnginesThroughCacheLayer:
    """A storeless plan row always computes, so call-count benchmarks
    stay exact."""

    def test_counters_without_cache_match_seed_semantics(self, water_basis):
        eng = OSEngine(water_basis)
        quartet_block(eng, 0, 0, 0, 0)
        quartet_block(eng, 0, 1, 0, 1)
        quartet_block(eng, 0, 1, 0, 1)
        assert eng.quartets_computed == 3
        assert eng.quartets_served_from_store == 0


class TestShellSlicesProperty:
    def test_matches_shell_slice_and_is_cached(self):
        basis = BasisSet.build(water(), "6-31g")
        slices = basis.shell_slices
        assert slices is basis.shell_slices  # computed once
        assert list(slices) == [
            basis.shell_slice(i) for i in range(basis.nshells)
        ]

    def test_permuted_basis_gets_fresh_slices(self, water_basis):
        order = np.arange(water_basis.nshells)[::-1]
        permuted = water_basis.permuted(order)
        assert list(permuted.shell_slices) == [
            permuted.shell_slice(i) for i in range(permuted.nshells)
        ]
