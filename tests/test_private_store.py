"""A run without a store of its own: the path rule and the private store.

Before its first build such a run bounds the bytes a fill would store
(``ClassPlan.stored_bytes``).  At or under ``hf.STORE_BUDGET`` it attaches
a private :class:`~repro.integrals.store.ERIStore`: no directory, lock or
file, the filling build's supermatrix held in memory and detached however
the run ends; above, it runs direct.  A store, private or the user's,
that runs out of memory is dropped and the run goes on direct.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_class_batch import rand_basis

from repro.chem.builders import water
from repro.integrals import class_batch
from repro.scf import hf
from repro.scf.hf import RHF


@pytest.fixture
def tmp(tmp_path, monkeypatch):
    """The temporary directory of the runs of one test."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return tmp


def entries(tmp) -> list:
    return sorted(tmp.iterdir())


def bound_of(rhf: RHF) -> int:
    return rhf.engine.class_plan(rhf.tau).stored_bytes(rhf.basis.nbf)


class TestPathRule:
    def test_a_bound_over_the_budget_stays_direct(self, tmp, monkeypatch):
        rhf = RHF(water(), "6-31g")
        monkeypatch.setattr(hf, "STORE_BUDGET", bound_of(rhf) - 1)
        res = rhf.run()
        assert rhf.eri_store["private"] is False
        assert rhf.eri_store["bound"] == bound_of(rhf)
        assert rhf.eri_store["bytes"] == 0
        assert rhf.engine.quartets_served_from_store == 0
        # every build recomputed its screened rows
        assert rhf.engine.quartets_computed > res.iterations * 0.5 * \
            rhf.engine.class_plan(rhf.tau).nquartets
        assert entries(tmp) == []

    def test_a_bound_at_the_budget_stores_once(self, tmp, monkeypatch):
        direct = RHF(water(), "6-31g")
        monkeypatch.setattr(hf, "STORE_BUDGET", 0)
        ref = direct.run()
        rhf = RHF(water(), "6-31g")
        monkeypatch.setattr(hf, "STORE_BUDGET", bound_of(rhf))
        res = rhf.run()
        nquartets = rhf.engine.class_plan(rhf.tau).nquartets
        assert rhf.eri_store["private"] is True
        assert 0 < rhf.eri_store["bytes"] <= rhf.eri_store["bound"] == bound_of(rhf)
        # the first build fills and, like every later one, is served
        assert rhf.engine.quartets_computed == nquartets
        assert rhf.engine.quartets_served_from_store == (res.iterations + 1) * nquartets
        assert rhf.engine.integral_store is None  # detached after the run
        assert res.iterations == ref.iterations
        assert abs(res.energy - ref.energy) <= 1e-10
        assert entries(tmp) == []

    def test_a_user_store_is_not_bounded(self, tmp, tmp_path):
        rhf = RHF(water(), integral_store=str(tmp_path / "store"))
        rhf.run()
        assert rhf.eri_store["private"] is False
        assert rhf.eri_store["bound"] is None
        assert rhf.eri_store["bytes"] == rhf.engine.integral_store.nbytes > 0
        assert entries(tmp) == []


class TestLifetime:
    """A private store is held in the run's memory: no run, however it
    ends, makes an entry in the temporary directory, and none leaves its
    store attached."""

    def test_a_converged_run_leaves_nothing(self, tmp):
        seen, held = [], []

        def look(it, energy):
            seen.append(entries(tmp))
            held.append(rhf.engine.integral_store.stats())

        rhf = RHF(water(), on_iteration=look)
        res = rhf.run()
        assert res.converged and len(seen) == res.iterations
        assert rhf.eri_store["private"] is True
        assert seen == [[]] * res.iterations and entries(tmp) == []
        assert rhf.engine.integral_store is None
        # the held matrices, no segments: nothing is framed on a medium
        assert held[-1]["ready"] and held[-1]["nsegments"] == 0
        assert held[-1]["nbytes"] == rhf.eri_store["bytes"] > 0

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_an_aborted_run_leaves_nothing(self, tmp, exc):
        def abort(it, energy):
            assert entries(tmp) == []
            if it == 3:
                raise exc("stop")

        rhf = RHF(water(), on_iteration=abort)
        with pytest.raises(exc, match="stop"):
            rhf.run()
        assert rhf.eri_store["private"] is True
        assert entries(tmp) == []
        assert rhf.engine.integral_store is None


class TestDroppedStore:
    """Out of memory, a store is dropped: the run goes on direct, says why
    in ``eri_store`` and leaves nothing behind."""

    @pytest.fixture
    def direct(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(hf, "STORE_BUDGET", 0)
            return RHF(water(), "6-31g").run()

    def test_no_memory_to_assemble_the_fill(self, direct, tmp, monkeypatch):
        def oom(*args):
            raise MemoryError("injected: no room for the supermatrix")

        # the fill's scatter into its slots: a direct build writes none
        monkeypatch.setattr(class_batch.SlotFill, "write", oom)
        rhf = RHF(water(), "6-31g")
        res = rhf.run()
        assert res.converged and res.iterations == direct.iterations
        assert abs(res.energy - direct.energy) <= 1e-10
        assert rhf.eri_store["private"] is False
        assert "MemoryError" in rhf.eri_store["dropped"]
        assert rhf.engine.integral_store is None
        assert entries(tmp) == []

    @pytest.mark.parametrize("warm", [False, True], ids=["fill", "mapping"])
    def test_a_user_store_is_dropped(self, direct, tmp_path, monkeypatch, warm):
        """The same for the user's store, as it is filled or as its file is
        mapped: the run converges as the direct one does and the
        directory gains no manifest."""
        def oom(*args):
            raise MemoryError("injected")

        path = tmp_path / "store"
        if warm:
            RHF(water(), "6-31g", integral_store=str(path)).run()
        before = {p.name: p.read_bytes() for p in path.glob("manifest*")}
        if warm:
            monkeypatch.setattr(class_batch, "_mapped_matrices", oom)
        else:
            monkeypatch.setattr(class_batch.SlotFill, "write", oom)
        rhf = RHF(water(), "6-31g", integral_store=str(path))
        res = rhf.run()
        assert res.converged and res.iterations == direct.iterations
        assert abs(res.energy - direct.energy) <= 1e-10
        assert rhf.eri_store["dropped"] == "MemoryError('injected')"
        assert rhf.engine.integral_store is None
        assert {p.name: p.read_bytes() for p in path.glob("manifest*")} == before

    def test_a_store_dropped_mid_run_keeps_its_accounting(
        self, direct, tmp_path, monkeypatch
    ):
        """A warm store that runs out of memory in its third served
        build still reports what it did before: its CRC checks reach the
        integrity summary and its bytes ``eri_store``."""
        path = str(tmp_path / "store")
        RHF(water(), "6-31g", integral_store=path).run()
        kept = RHF(water(), "6-31g", integral_store=path, integrity=True)
        kept_res = kept.run()
        contract, served = class_batch.Supermatrix.contract, []

        def third_fails(self, *args, **kwargs):
            served.append(1)
            if len(served) == 3:
                raise MemoryError("injected")
            return contract(self, *args, **kwargs)

        monkeypatch.setattr(class_batch.Supermatrix, "contract", third_fails)
        rhf = RHF(water(), "6-31g", integral_store=path, integrity=True)
        res = rhf.run()
        assert rhf.eri_store["dropped"] == "MemoryError('injected')"
        assert rhf.engine.integral_store is None
        assert res.converged and abs(res.energy - direct.energy) <= 1e-10
        checks = res.integrity_summary["checks"]
        assert checks["store_crc"] == kept_res.integrity_summary["checks"][
            "store_crc"] > 0
        assert rhf.eri_store["bytes"] == kept.eri_store["bytes"] > 0


def test_the_bound_covers_a_fill_without_zeros():
    """The bound is an upper bound on the bytes a fill writes (each array
    padded to 8 bytes, as the file holds it), even when no element is an
    exact zero: the folded arrays of all-ones blocks."""
    from repro.chem.basis.basisset import BasisSet
    from repro.chem.builders import water_cluster
    from repro.integrals.class_batch import SlotFill
    from repro.integrals.engine import MDEngine

    for mol, basis in ((water(), "sto-3g"), (water_cluster(2, 1, 1), "6-31g")):
        engine = MDEngine(BasisSet.build(mol, basis))
        plan = engine.class_plan(1e-11)
        fill = SlotFill(engine.basis, plan, None)
        for b in plan.batches:
            fill.write([(b, np.arange(b.nq))], [np.ones((b.nq, *b.dims))])
        stored = sum(-(-a.nbytes // 8) * 8 for a in fill.folded())
        assert stored <= plan.stored_bytes(engine.basis.nbf)


@given(st.integers(0, 2**16), st.floats(-13.0, -6.0))
@settings(max_examples=5, deadline=None)
def test_the_bound_covers_the_file_on_random_bases(seed, log_tau):
    """Random s/p/d shells (pure and Cartesian d) at a random tau: the bound
    is at or over the bytes of the file a fill writes."""
    from repro.integrals.engine import MDEngine
    from repro.scf.fock import build_jk

    basis, tau = rand_basis(np.random.default_rng(seed), nshells=5), 10.0 ** log_tau
    with tempfile.TemporaryDirectory() as store:
        engine = MDEngine(basis, store=store)
        build_jk(engine, np.eye(basis.nbf), tau)
        written = (Path(store) / "supermatrix.bin").stat().st_size
    assert written <= engine.class_plan(tau).stored_bytes(basis.nbf)


@pytest.mark.parametrize("system", [
    ("water", (), "sto-3g"), ("water_cluster", (5, 1, 1), "sto-3g"),
    ("water_cluster", (4, 1, 1), "6-31g"),
], ids=["water/sto-3g", "(h2o)5/sto-3g", "(h2o)4/6-31g"])
def test_the_bound_covers_each_gate_systems_file(system, tmp_path):
    """On the stored gate systems the bound is at or over the file's bytes."""
    from repro.chem import builders
    from repro.chem.basis.basisset import BasisSet
    from repro.integrals.engine import MDEngine
    from repro.scf.fock import build_jk

    builder, args, basis_name = system
    basis = BasisSet.build(getattr(builders, builder)(*args), basis_name)
    engine = MDEngine(basis, store=tmp_path / "store")
    build_jk(engine, np.eye(basis.nbf))
    written = (tmp_path / "store" / "supermatrix.bin").stat().st_size
    assert written <= engine.class_plan(1e-11).stored_bytes(basis.nbf)
