"""The density-weighted row screen of a computed J/K build and the
incremental SCF it serves.

``class_batch.density_rows`` keeps a plan row iff ``sigma_MN sigma_PQ w
>= tau``, ``w`` the largest |D| block maximum on the six shell pairs the
quartet touches.  Its oracle is the Schwarz-only build it replaced
(``tests/reference_schwarz_jk.py``): a build whose weight is all ones is
that build, sha256 for sha256, and any build stays within the bound the
dropped quartets imply.  A direct SCF feeds the screen the density
change, ``F_k = F_base + G(D_k - D_base)``, and restarts bitwise from
every snapshot, its base included.
"""

from __future__ import annotations

import hashlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_schwarz_jk import schwarz_only_jk
from test_class_batch import rand_basis

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water, water_cluster
from repro.chem.molecule import Molecule
from repro.integrals.class_batch import density_rows, jk_from_plan
from repro.integrals.engine import MDEngine
from repro.runtime.faults import SCFFaultPlan
from repro.scf import hf
from repro.scf.checkpoint import checkpoint_paths, payload_digest
from repro.scf.fock import build_jk
from repro.scf.hf import RHF
from repro.scf.uhf import UHF


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def graded_density(rng, n):
    """A random symmetric density whose rows span eight decades, so a
    moderate ``tau`` drops some quartets and keeps others."""
    scale = 10.0 ** -rng.uniform(0, 8, n)
    d = rng.normal(size=(n, n)) * np.outer(scale, scale)
    return (d + d.T) / 2.0


def screen_bound(engine, plan, dropped, tau):
    """Elementwise bounds on how far the dropped rows move J and K.

    A dropped quartet has ``sigma_MN sigma_PQ |D| < tau`` on each block it
    reads, and ``|(ab|cd)| <= sigma_MN sigma_PQ``, so it moves each element
    of its six half-J / half-K blocks by less than ``tau`` times its orbit
    weight times the size of the block it contracts over;
    ``J = 2 (Jt + Jt^T)`` and ``K = Kt + Kt^T``.
    """
    n, off = engine.basis.nbf, engine.basis.offsets
    q = np.concatenate([b.quartets for b in plan.batches])[dropped]
    w = np.concatenate([b.weights for b in plan.batches])[dropped]
    bj, bk = np.zeros((n, n)), np.zeros((n, n))
    size = np.diff(off)
    for (a, b, c, d), wq in zip(q.tolist(), w.tolist()):
        blk = {s: slice(off[s], off[s + 1]) for s in (a, b, c, d)}
        for acc, (r, s, x, y) in (
            (bj, (a, b, c, d)), (bj, (c, d, a, b)),
            (bk, (a, c, b, d)), (bk, (b, d, a, c)),
            (bk, (a, d, b, c)), (bk, (b, c, a, d)),
        ):
            acc[blk[r], blk[s]] += tau * wq * size[x] * size[y]
    return 2.0 * (bj + bj.T), bk + bk.T


class TestScreenAgainstSchwarzOnly:
    @given(st.integers(0, 10_000), st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2]))
    @settings(max_examples=8, deadline=None)
    def test_dropped_rows_stay_within_the_bound(self, seed, tau):
        rng = np.random.default_rng(seed)
        engine = MDEngine(rand_basis(rng, nshells=5))
        plan = engine.class_plan(tau)
        d = graded_density(rng, engine.basis.nbf)
        kept = density_rows(engine, plan, d[None], tau)
        dropped = np.ones(plan.nquartets, bool)
        dropped[np.arange(plan.nquartets) if kept is None else kept] = False
        j, k = jk_from_plan(engine, d, tau=tau)
        j_ref, k_ref = schwarz_only_jk(MDEngine(engine.basis), d, plan)
        assert engine.quartets_computed == plan.nquartets - dropped.sum()
        bj, bk = screen_bound(engine, plan, dropped, tau)
        # plus summation order: the kept rows flush in other groupings
        slack = 1e-13 * (1.0 + np.abs(j_ref).max() + np.abs(k_ref).max())
        assert (np.abs(j - j_ref) <= bj + slack).all()
        assert (np.abs(k - k_ref) <= bk + slack).all()

    def test_the_bound_is_exercised(self):
        rng = np.random.default_rng(7)
        engine = MDEngine(rand_basis(rng, nshells=5))
        plan = engine.class_plan(1e-12)
        kept = density_rows(engine, plan, graded_density(rng, engine.basis.nbf)[None], 1e-4)
        assert kept is not None and 0 < kept.size < plan.nquartets

    @pytest.mark.parametrize("stacked", [False, True])
    def test_all_ones_weight_is_the_oracle_bitwise(self, stacked):
        """Every block maximum 1: every row passes, and the J/K are the
        Schwarz-only build's, sha256-equal (one density or a stack,
        whose weight is the max over it)."""
        engine = MDEngine(BasisSet.build(water_cluster(2, 1, 1), "6-31g"))
        plan = engine.class_plan(1e-11)
        n = engine.basis.nbf
        d = np.ones((n, n))
        if stacked:
            d = np.stack([d, graded_density(np.random.default_rng(3), n)])
        assert density_rows(engine, plan, d.reshape(-1, n, n), 1e-11) is None
        got = build_jk(engine, d, 1e-11)
        ref = schwarz_only_jk(MDEngine(engine.basis), d, plan)
        assert digest(*got) == digest(*ref)

    def test_threads_and_serial_select_the_same_rows(self):
        engine = MDEngine(BasisSet.build(water_cluster(2, 1, 1), "sto-3g"))
        d = graded_density(np.random.default_rng(5), engine.basis.nbf)
        serial = build_jk(engine, d, 1e-6)
        computed = engine.quartets_computed
        threaded = build_jk(engine, d, 1e-6, threads=2)
        assert engine.quartets_computed == 2 * computed < 2 * engine.class_plan(1e-6).nquartets
        for a, b in zip(serial, threaded):
            assert np.abs(a - b).max() <= 1e-13

    def test_a_store_fill_computes_every_row(self, tmp_path):
        basis = BasisSet.build(water_cluster(2, 1, 1), "sto-3g")
        engine = MDEngine(basis, store=tmp_path / "store")
        d = graded_density(np.random.default_rng(5), basis.nbf)
        build_jk(engine, d, 1e-6)
        assert engine.quartets_computed == engine.class_plan(1e-6).nquartets

    def test_victims_on_dropped_rows_never_fire(self):
        engine = MDEngine(BasisSet.build(water_cluster(2, 1, 1), "sto-3g"))
        plan = engine.class_plan(1e-6)
        d = graded_density(np.random.default_rng(2), engine.basis.nbf)
        kept = density_rows(engine, plan, d[None], 1e-6)
        fault = SCFFaultPlan(seed=4, quartet_nan_rate=0.05)
        victims = fault.activate().draw_build(plan.nquartets).rows
        engine.scf_faults, engine.finite_check = fault.activate(), True
        jk_from_plan(engine, d, tau=1e-6)
        hit = np.intersect1d(victims, kept).size
        assert 0 < hit < victims.size
        assert engine.scf_faults.quartets_corrupted == hit == engine.eri_rescues


def water_cation():
    return Molecule(atoms=water().atoms, charge=1, name="H2O+")


#: a direct RHF whose screen drops rows, and the open-shell UHF past its
#: first scheduled full rebuild
RUNS = {
    "rhf-water-dimer": lambda **kw: RHF(water_cluster(2, 1, 1), **kw),
    "uhf-water-cation": lambda **kw: UHF(water_cation(), max_iter=hf.N_FULL + 4, **kw),
}


def outcome(res) -> str:
    arrays = [a for name, a in sorted(vars(res).items())
              if isinstance(a, np.ndarray) and name.startswith(("fock", "density"))]
    return digest(*arrays, np.array(res.energy_history))


def snapshot_dir(src, dst, upto: int):
    """A checkpoint directory holding ``src``'s snapshots 1..``upto``."""
    dst.mkdir()
    for path in checkpoint_paths(src):
        if int(path.stem.rsplit("_", 1)[1]) <= upto:
            shutil.copy(path, dst / path.name)
    return dst


class TestIncrementalRestart:
    @pytest.mark.parametrize("name", list(RUNS))
    def test_restart_from_every_snapshot_is_bitwise(self, name, tmp_path):
        make = RUNS[name]
        ref = make(checkpoint_dir=str(tmp_path / "ref")).run()
        for it in range(1, ref.iterations):
            ck = snapshot_dir(tmp_path / "ref", tmp_path / f"at{it}", it)
            res = make(checkpoint_dir=str(ck), restart=True).run()
            assert outcome(res) == outcome(ref), f"restart after {it}"

    def test_snapshot_without_base_restarts_with_a_full_build(
        self, tmp_path, monkeypatch
    ):
        """A snapshot without ``base_fock`` / ``base_density`` (written by
        a store-backed run, after a rollback, or before the base was kept)
        resumes with one full build, then increments again."""
        make = RUNS["rhf-water-dimer"]
        ref = make(checkpoint_dir=str(tmp_path / "ref")).run()
        ck = snapshot_dir(tmp_path / "ref", tmp_path / "old", 4)
        path = checkpoint_paths(ck)[0]
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if not k.startswith("base_")}
        arrays["payload_sha256"] = np.str_(payload_digest(arrays))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        fulls = []
        built = hf.SCFDriver._built_focks

        def spy(self, run, full):
            fulls.append(full or run.base is None)
            return built(self, run, full)

        monkeypatch.setattr(hf.SCFDriver, "_built_focks", spy)
        res = make(checkpoint_dir=str(ck), restart=True).run()
        # the resumed first build, the next one, and the final build
        assert fulls[:2] == [True, False] and fulls[-1] is True
        assert abs(res.energy - ref.energy) <= 1e-10
        assert abs(res.iterations - ref.iterations) <= 1

    def test_stored_run_keeps_no_base(self, tmp_path):
        RHF(water(), integral_store=str(tmp_path / "store"), max_iter=3,
            checkpoint_dir=str(tmp_path / "ck")).run()
        with np.load(checkpoint_paths(tmp_path / "ck")[0]) as z:
            assert not any(k.startswith("base_") for k in z.files)
