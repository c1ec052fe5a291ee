"""Tests for the cross-quartet class-batched ERI path.

The class-batched kernel, six-block contraction, and threaded driver
must reproduce the per-quartet scatter oracle (``reference_fock``) on
every engine -- batched MD, batched Obara-Saika, reference MD, synthetic --
exactly to summation order across mixed s/p/d bases, and its profiler
attribution must land one span per kernel chunk / per flush, not per
quartet.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import (
    ReferenceMDEngine,
    SyntheticERIEngine,
    class_rows,
    quartet_block,
    quartet_blocks,
)
from reference_fock import (
    canonical_shell_quartets,
    reference_build_jk,
    scatter_quartet,
)
from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import water
from repro.integrals import class_batch
from repro.integrals.class_batch import (
    EIGHT_PERMUTATIONS,
    build_class_plan,
    canonical_quartet_array,
    jk_from_plan,
    jk_from_rows,
    orbit_weights,
)
from repro.integrals.engine import MDEngine, OSEngine
from repro.integrals.store import StoreInvalidatedWarning
from repro.obs import Tracer, session
from repro.obs.profile import PHASE_ERI, PHASE_JK, PhaseProfiler
from repro.scf.fock import build_jk


def distinct_perms(quartet):
    """Oracle: the permutations of ``EIGHT_PERMUTATIONS`` whose images
    of ``quartet`` are distinct, in enumeration order -- the list the
    per-image scatter used to replay, which ``orbit_weights`` replaces."""
    seen = set()
    perms = []
    for perm in EIGHT_PERMUTATIONS:
        img = tuple(quartet[i] for i in perm)
        if img not in seen:
            seen.add(img)
            perms.append(perm)
    return tuple(perms)


def oracle_jk(engine, density, quartets):
    """J/K of a quartet list through the per-quartet ``scatter_quartet``."""
    n = engine.basis.nbf
    j, k = np.zeros((n, n)), np.zeros((n, n))
    quartets = [tuple(q) for q in quartets]
    blocks = quartet_blocks(engine, quartets)
    for quartet in quartets:
        block = blocks[quartet]
        scatter_quartet(j, k, density, engine.basis, quartet, block)
    return j, k


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


def rand_basis(rng, nshells=6, lmax=2):
    """A small random mixed s/p/d basis, always with one pure and one
    cartesian d shell when ``lmax`` allows."""
    shells = []
    for _ in range(nshells):
        l = int(rng.integers(0, lmax + 1))
        pure = bool(l == 2 and rng.integers(0, 2))
        shells.append(rand_shell(rng, l, pure=pure))
    if lmax >= 2:
        shells[0] = rand_shell(rng, 2, pure=True)
        shells[1] = rand_shell(rng, 2, pure=False)
    return BasisSet(molecule=water(), shells=shells, name="rand")


def one_d_basis(rng):
    """Three random s/p shells and one uncontracted pure-d shell: what
    the per-primitive kernels (~100x slower on a d quartet) can afford."""
    shells = [rand_shell(rng, 2, pure=True, nprim=1)]
    shells += [rand_shell(rng, int(l)) for l in rng.integers(0, 2, 3)]
    return BasisSet(molecule=water(), shells=shells, name="rand")


def rand_density(rng, n):
    d = rng.normal(size=(n, n))
    return (d + d.T) / 2.0


#: every engine ``build_jk`` serves: the two batched kernels, and the
#: test engines that stack one ``_quartet`` block per row
ENGINES = {
    "md": MDEngine,
    "md-reference": ReferenceMDEngine,
    "os": OSEngine,
    "synthetic": SyntheticERIEngine,
}
FAST = ("md", "os", "synthetic")


class TestClassJKAgreement:
    """The one ``build_jk`` path vs the per-quartet scatter oracle."""

    def test_matches_batched_seed_and_os_on_water(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(5)
        d = rand_density(rng, basis.nbf)
        j_cls, k_cls = build_jk(MDEngine(basis), d)
        for make in (MDEngine, ReferenceMDEngine, OSEngine):
            j, k = reference_build_jk(make(basis), d)
            assert np.allclose(j_cls, j, atol=1e-10, rtol=0)
            assert np.allclose(k_cls, k, atol=1e-10, rtol=0)

    @given(st.integers(0, 1000))
    @settings(max_examples=3, deadline=None)
    def test_matches_per_quartet_on_random_bases(self, seed):
        """Every engine x {one density, a stack of two} x threads {1, 2}
        at tau = 0 on random s/p/d bases (always one pure-d shell)."""
        for name, make in ENGINES.items():
            rng = np.random.default_rng(seed)
            engine = make(rand_basis(rng) if name in FAST else one_d_basis(rng))
            if name not in FAST:
                # the oracle pass pays for each block, the builds replay it
                engine._quartet = functools.cache(engine._quartet)
            n = engine.basis.nbf
            dens = np.stack([rand_density(rng, n) for _ in range(2)])
            j_ref, k_ref = reference_build_jk(engine, dens, tau=0.0)
            for threads in (1, 2):
                for d, jr, kr in ((dens[0], j_ref[0], k_ref[0]),
                                  (dens, j_ref, k_ref)):
                    j, k = build_jk(engine, d, tau=0.0, threads=threads)
                    assert j.shape == k.shape == d.shape
                    assert np.allclose(j, jr, atol=1e-10, rtol=0), name
                    assert np.allclose(k, kr, atol=1e-10, rtol=0), name

    @given(st.integers(0, 1000))
    @settings(max_examples=6, deadline=None)
    def test_six_blocks_match_scatter_quartet_oracle(self, seed):
        """Canonical and orbit-scrambled tuples, incl. pure-d shells."""
        rng = np.random.default_rng(seed)
        basis = rand_basis(rng, nshells=5)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        canonical = list(canonical_shell_quartets(engine.schwarz(), 0.0))
        scrambled = [
            tuple(q[i] for i in EIGHT_PERMUTATIONS[rng.integers(0, 8)])
            for q in canonical
        ]
        j_ref, k_ref = oracle_jk(MDEngine(basis), d, canonical)
        for quartets in (canonical, scrambled):
            j, k = jk_of_quartets(engine, d, quartets)
            assert np.allclose(j, j_ref, atol=1e-10, rtol=0)
            assert np.allclose(k, k_ref, atol=1e-10, rtol=0)

    def test_asymmetric_density_rejected(self, water_basis):
        engine = MDEngine(water_basis)
        d = rand_density(np.random.default_rng(3), water_basis.nbf)
        d[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            jk_from_plan(engine, d, 1e-11)

    def test_stacked_densities_match_per_density_calls(self, water_basis):
        rng = np.random.default_rng(19)
        dens = np.stack([rand_density(rng, water_basis.nbf) for _ in range(3)])
        slow = ReferenceMDEngine(water_basis)
        slow._quartet = functools.cache(slow._quartet)
        for engine in (MDEngine(water_basis), slow):
            j, k = build_jk(engine, dens)
            assert j.shape == k.shape == dens.shape
            for ji, ki, d in zip(j, k, dens):
                j1, k1 = build_jk(engine, d)
                assert j1.shape == d.shape
                assert np.allclose(ji, j1, atol=1e-12, rtol=0)
                assert np.allclose(ki, k1, atol=1e-12, rtol=0)

    def test_class_rows_match_engine_quartets(self):
        """Class-kernel blocks == each quartet's one-row plan."""
        basis = BasisSet.build(water(), "6-31g")
        engine = MDEngine(basis)
        ref = MDEngine(basis)
        plan = engine.class_plan(1e-11)
        for batch in plan.batches[:4]:
            rows = np.arange(min(batch.nq, 8))
            blocks = class_rows(batch, rows)
            for blk, (m, n, p, q) in zip(blocks, batch.quartets[rows]):
                expected = quartet_block(ref, int(m), int(n), int(p), int(q))
                assert np.allclose(blk, expected, atol=1e-12, rtol=0)

    def test_counts_computed_quartets_like_per_quartet_path(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(2)
        d = rand_density(rng, basis.nbf)
        e_cls = MDEngine(basis)
        e_ref = MDEngine(basis)
        build_jk(e_cls, d)
        reference_build_jk(e_ref, d)
        assert e_cls.quartets_computed == e_ref.quartets_computed


class TestRowSelection:
    """``jk_from_rows`` / ``ClassPlan.chunks(rows)`` take strictly
    increasing plan rows: duplicates used to double-count, an
    out-of-range row was dropped and a permutation hit an IndexError."""

    @pytest.fixture(scope="class")
    def dimer(self):
        from repro.chem.builders import water_cluster

        engine = MDEngine(BasisSet.build(water_cluster(2, 1, 1), "sto-3g"))
        plan = engine.class_plan(0.0)
        d = rand_density(np.random.default_rng(41), engine.basis.nbf)
        return engine, plan, d

    @pytest.mark.parametrize("case", [
        "duplicate", "out_of_range", "negative", "permuted", "two_d", "float",
    ])
    def test_invalid_rows_rejected(self, dimer, case):
        engine, plan, d = dimer
        n = plan.nquartets
        rows = {
            "duplicate": np.array([0, 1, 1, 5]),
            "out_of_range": np.array([0, n]),
            "negative": np.array([-1, 3]),
            "permuted": np.arange(n)[::-1].copy(),
            "two_d": np.arange(4).reshape(2, 2),
            "float": np.array([0.0, 1.0]),
        }[case]
        with pytest.raises(ValueError, match="rows must be strictly increasing"):
            plan.chunks(rows)
        with pytest.raises(ValueError, match="rows must be strictly increasing"):
            jk_from_rows(engine, d, plan, rows)

    def test_selected_rows_partition_the_whole_build(self, dimer):
        engine, plan, d = dimer
        j_all, k_all = jk_from_plan(engine, d, 0.0)
        rows = np.arange(plan.nquartets)
        odd, even = rows[1::2], rows[::2]
        j1, k1 = jk_from_rows(engine, d, plan, odd)
        j2, k2 = jk_from_rows(engine, d, plan, even)
        assert np.abs(j1 + j2 - j_all).max() <= 1e-12
        assert np.abs(k1 + k2 - k_all).max() <= 1e-12
        j0, k0 = jk_from_rows(engine, d, plan, np.empty(0, dtype=np.int64))
        assert not j0.any() and not k0.any()


class TestDistinctPerms:
    """The distinct-image oracle and the orbit weights that replace it."""

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_weight_counts_distinct_images(self, vals):
        # tuples in arbitrary (non-canonical) order
        assert 8 * orbit_weights(np.array([vals]))[0] == len(
            distinct_perms(tuple(vals))
        )

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_images_distinct_and_cover_orbit(self, vals):
        quartet = tuple(vals)
        perms = distinct_perms(quartet)
        images = [tuple(quartet[i] for i in perm) for perm in perms]
        assert len(images) == len(set(images))
        full_orbit = {
            tuple(quartet[i] for i in perm) for perm in EIGHT_PERMUTATIONS
        }
        assert set(images) == full_orbit

    def test_pattern_determines_perm_list(self):
        # quartets sharing an equality pattern share the distinct list
        assert distinct_perms((3, 1, 3, 1)) == distinct_perms((7, 2, 7, 2))
        assert distinct_perms((2, 2, 2, 2)) == distinct_perms((5, 5, 5, 5))
        assert len(distinct_perms((0, 0, 0, 0))) == 1
        assert len(distinct_perms((3, 2, 1, 0))) == 8


class TestThreadedContraction:
    def test_threaded_matches_serial(self):
        basis = BasisSet.build(water(), "6-31g")
        rng = np.random.default_rng(11)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        j1, k1 = jk_from_plan(engine, d, 0.0, threads=1)
        j4, k4 = jk_from_plan(engine, d, 0.0, threads=4)
        assert np.allclose(j1, j4, atol=1e-12, rtol=0)
        assert np.allclose(k1, k4, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_small_stage_budget_matches_unbounded(self, monkeypatch, threads):
        """Several flushes per shape, flush edges inside a kernel class."""
        basis = BasisSet.build(water(), "6-31g")
        d = rand_density(np.random.default_rng(17), basis.nbf)
        engine = MDEngine(basis)
        plan = engine.class_plan(0.0)
        flushes = recorded_flushes(monkeypatch)
        j_ref, k_ref = jk_from_plan(engine, d, 0.0)
        one_per_shape = len(flushes)
        assert one_per_shape == len({b.dims for b in plan.batches})
        # tiny sweeps -> several family chunks per group; a stage budget
        # of a sixth of the largest shape -> flushes end mid-class
        monkeypatch.setattr(class_batch, "MAX_R_WORK", 2_000)
        monkeypatch.setattr(class_batch, "MAX_STAGE_WORK", 100)
        flushes.clear()
        j, k = jk_from_plan(engine, d, 0.0, threads=threads)
        assert len(flushes) >= 2 * one_per_shape
        assert any(rows.size < b.nq for f in flushes for b, rows in f)

        def each_row(members):
            return sorted((id(b), r) for b, rows in members for r in rows.tolist())

        assert each_row(m for f in flushes for m in f) == each_row(
            m for chunk in plan.chunks() for m in chunk
        )
        assert np.allclose(j, j_ref, atol=1e-12, rtol=0)
        assert np.allclose(k, k_ref, atol=1e-12, rtol=0)

    def test_build_jk_threads_kwarg(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(13)
        d = rand_density(rng, basis.nbf)
        j1, k1 = build_jk(MDEngine(basis), d)
        j2, k2 = build_jk(MDEngine(basis), d, threads=3)
        assert np.allclose(j1, j2, atol=1e-12, rtol=0)
        assert np.allclose(k1, k2, atol=1e-12, rtol=0)


class TestPlanCaching:
    def test_plan_memoized_per_tau(self, water_basis):
        engine = MDEngine(water_basis)
        p1 = engine.class_plan(1e-11)
        p2 = engine.class_plan(1e-11)
        assert p1 is p2
        assert engine.class_plan(1e-9) is not p1

    def test_plan_lru_bounded(self, water_basis, tmp_path):
        """The plan cache is bounded at one: another tau re-plans and
        replaces the plan, and the store refilled at that tau maps a new
        supermatrix into its slot."""
        engine = MDEngine(water_basis, store=tmp_path)
        store = engine.integral_store
        d = rand_density(np.random.default_rng(3), water_basis.nbf)
        build_jk(engine, d, 1e-11)  # fills the store
        build_jk(engine, d, 1e-11)  # maps the supermatrix
        p1, sm1 = engine.class_plan(1e-11), store.supermatrix
        assert sm1 is not None
        p2 = engine.class_plan(1e-9)
        assert p2 is not p1 and engine._class_plan == (1e-9, p2)
        assert engine.class_plan(1e-9) is p2
        with pytest.warns(StoreInvalidatedWarning, match="tau"):
            build_jk(engine, d, 1e-9)  # refills the store at 1e-9
        assert store.supermatrix is None and store.manifest["tau"] == 1e-9
        build_jk(engine, d, 1e-9)
        assert store.supermatrix is not None and store.supermatrix is not sm1
        assert engine.class_plan(1e-11) is not p1

    def test_plan_covers_all_screened_quartets(self, water_basis):
        engine = MDEngine(water_basis)
        tau = 1e-11
        plan = engine.class_plan(tau)
        expected = set(canonical_shell_quartets(engine.schwarz(), tau))
        planned = {
            tuple(int(v) for v in row)
            for batch in plan.batches
            for row in batch.quartets
        }
        assert planned == expected


def jk_of_quartets(engine, density, quartets):
    """J/K contribution of an explicit quartet list (any index order)."""
    plan = build_class_plan(engine.basis, engine.pair_cache, quartets)
    return jk_from_rows(engine, density, plan, np.arange(plan.nquartets))


class TestJKForQuartets:
    """Plans over explicit quartet lists (numeric task decompositions)."""

    def test_non_canonical_tuples_give_same_jk(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(23)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        canonical = list(canonical_shell_quartets(engine.schwarz(), 1e-11))
        # scramble each tuple to a random image of its symmetry orbit:
        # the distinct-image scatter must produce the identical J/K
        scrambled = []
        for quartet in canonical:
            perm = EIGHT_PERMUTATIONS[rng.integers(0, 8)]
            scrambled.append(tuple(quartet[i] for i in perm))
        j_ref, k_ref = jk_of_quartets(engine, d, canonical)
        j_scr, k_scr = jk_of_quartets(engine, d, scrambled)
        assert np.allclose(j_ref, j_scr, atol=1e-12, rtol=0)
        assert np.allclose(k_ref, k_scr, atol=1e-12, rtol=0)

    def test_partition_sums_to_whole(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(29)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        quartets = list(canonical_shell_quartets(engine.schwarz(), 1e-11))
        j_all, k_all = jk_of_quartets(engine, d, quartets)
        half = len(quartets) // 2
        j1, k1 = jk_of_quartets(engine, d, quartets[:half])
        j2, k2 = jk_of_quartets(engine, d, quartets[half:])
        assert np.allclose(j_all, j1 + j2, atol=1e-12, rtol=0)
        assert np.allclose(k_all, k1 + k2, atol=1e-12, rtol=0)


class TestProfilerAttribution:
    """``eri_quartets`` lands per kernel chunk, ``jk_contraction`` per
    flush -- never per quartet -- serial and threaded."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_eri_and_jk_phases_recorded_per_chunk(self, monkeypatch, threads):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(31)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        plan = engine.class_plan(0.0)
        flushes = recorded_flushes(monkeypatch)
        prof, tracer = PhaseProfiler(), Tracer()
        with session(profiler=prof, tracer=tracer):
            jk_from_plan(engine, d, 0.0, threads=threads)
        # as many chunk phases as one thread records, whoever runs them
        assert prof.stats[PHASE_ERI].calls == len(plan.chunks())
        assert prof.stats[PHASE_JK].calls == len(flushes)
        # one flush per block shape (and worker): never per quartet
        assert len(flushes) <= threads * len({b.dims for b in plan.batches})
        assert len(plan.chunks()) < plan.nquartets
        assert prof.stats[PHASE_ERI].wall_s > 0.0
        assert prof.stats[PHASE_JK].wall_s > 0.0
        # each occurrence is one span, on the track of the thread that ran it
        spans = tracer.spans()
        for stat in prof.phases():
            assert sum(s.name == stat.name for s in spans) == stat.calls
        keys = [(s.name, s.tid, s.ts) for s in spans]
        assert len(set(keys)) == len(keys)
        tids = {s.tid for s in spans}
        if threads == 1:
            assert tids == {0}
        else:  # each worker is its own track
            assert len(tids) >= 2


def recorded_flushes(monkeypatch) -> list:
    """The members of every contraction flush, as the build makes them."""
    real, flushes = class_batch._weighted_flush, []

    def weighted(flush, parts):
        flushes.append(list(flush))
        return real(flush, parts)

    monkeypatch.setattr(class_batch, "_weighted_flush", weighted)
    return flushes


class TestFiniteCheckRescue:
    def test_poisoned_chunk_is_rescued_per_quartet(self, monkeypatch):
        """A NaN row in a batched sweep is recomputed on Obara-Saika,
        that row only, matching the clean build."""
        import repro.integrals.class_batch as cb

        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(37)
        d = rand_density(rng, basis.nbf)
        j_ref, k_ref = build_jk(MDEngine(basis), d)

        real = cb.compute_class_rows
        poisoned = {"done": False}

        def poison(chunk):
            out = real(chunk)
            if not poisoned["done"]:
                out[0][0] = np.nan
                poisoned["done"] = True
            return out

        monkeypatch.setattr(cb, "compute_class_rows", poison)
        engine = MDEngine(basis)
        engine.finite_check = True
        rescued = []
        rescue = engine.rescue_rows
        engine.rescue_rows = lambda batch, rows: rescued.append(rows) or rescue(batch, rows)
        j, k = build_jk(engine, d)
        assert poisoned["done"]
        assert engine.eri_rescues == 1
        assert [rows.tolist() for rows in rescued] == [[0]]
        assert np.allclose(j, j_ref, atol=1e-10, rtol=0)
        assert np.allclose(k, k_ref, atol=1e-10, rtol=0)


class TestClassPlanStructure:
    def test_orbit_weights_match_distinct_images(self, water_basis):
        plan = MDEngine(water_basis).class_plan(1e-11)
        for batch in plan.batches:
            assert batch.weights.shape == (batch.nq,)
            assert batch.pair_bases.shape == (6, batch.nq)
            for row, w in zip(batch.quartets, batch.weights):
                assert 8 * w == len(distinct_perms(tuple(int(v) for v in row)))

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_vectorised_enumeration_matches_generator(self, seed):
        rng = np.random.default_rng(seed)
        ns = int(rng.integers(1, 9))
        sigma = rng.uniform(0.0, 1.0, (ns, ns)) ** 4
        sigma = np.maximum(sigma, sigma.T)
        dead = rng.integers(0, ns, size=int(rng.integers(0, 3)))
        sigma[dead, :] = 0.0  # zero rows: shells screened out entirely
        sigma[:, dead] = 0.0
        tau = float(rng.choice([0.0, 1e-3, 0.05, 2.0]))
        expected = list(canonical_shell_quartets(sigma, tau))
        got = canonical_quartet_array(sigma, tau)
        assert got.shape == (len(expected), 4)
        assert [tuple(row) for row in got.tolist()] == expected

    def test_operands_are_stacked_lazily_and_once_under_threads(
        self, monkeypatch
    ):
        """Kernel operands appear on a batch's first sweep; racing
        ``jk_threads`` workers share the one build."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        engine = MDEngine(BasisSet.build(water(), "6-31g"))
        batch = max(engine.class_plan(1e-11).batches, key=lambda b: b.nq)
        assert batch._operands is None
        real, calls = class_batch.ClassBatch._stack_operands, []

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(class_batch.ClassBatch, "_stack_operands", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(
                    lambda _: batch.operands(), range(32), timeout=30
                ))
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        assert all(ops is got[0] for ops in got)

    def test_throwaway_pair_cache(self, water_basis):
        """No pair data -> a plan without class-kernel operands."""
        quartets = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]
        plan = build_class_plan(water_basis, None, quartets)
        assert plan.nquartets == 3
        assert all(b.pair_cache is None for b in plan.batches)
        assert sorted(b.row0 for b in plan.batches) == sorted(
            np.cumsum([0] + [b.nq for b in plan.batches])[:-1].tolist()
        )
