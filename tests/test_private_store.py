"""A run without a store of its own: the path rule and the private store.

Before its first build such a run bounds the bytes a fill would store
(``ClassPlan.stored_bytes``).  At or under ``hf.STORE_BUDGET`` it attaches
a private :class:`~repro.integrals.store.ERIStore` in a new temporary
directory, holds a shared ``flock`` on its ``.held`` file, and deletes it
however the run ends; above, it runs direct.  A process killed before its
cleanup drops its lock but leaves the directory; the next private store's
creation removes it.  A private store that cannot be made, filled or
mapped (no disk, no memory) is dropped and the run goes on direct.
"""

from __future__ import annotations

import errno
import fcntl
import tempfile

import numpy as np
import pytest

from repro.chem.builders import water
from repro.integrals import class_batch
from repro.integrals import store as store_mod
from repro.scf import hf
from repro.scf.hf import RHF


@pytest.fixture
def tmp(tmp_path, monkeypatch):
    """The temporary directory the runs of one test make their stores in."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def private_stores(tmp) -> list:
    return sorted(tmp.glob("repro-store-*"))


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
        assert private_stores(tmp) == []

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
        assert private_stores(tmp) == []

    def test_a_user_store_is_not_bounded(self, tmp, tmp_path):
        rhf = RHF(water(), integral_store=str(tmp_path / "store"))
        rhf.run()
        assert rhf.eri_store["private"] is False
        assert rhf.eri_store["bound"] is None
        assert rhf.eri_store["bytes"] == rhf.engine.integral_store.nbytes > 0
        assert private_stores(tmp) == []


class TestLifetime:
    def test_a_converged_run_leaves_nothing(self, tmp):
        seen = []
        res = RHF(
            water(), on_iteration=lambda it, e: seen.append(private_stores(tmp))
        ).run()
        assert res.converged and len(seen) == res.iterations
        assert all(len(stores) == 1 for stores in seen)
        assert private_stores(tmp) == []

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_an_aborted_run_leaves_nothing(self, tmp, exc):
        def abort(it, energy):
            assert len(private_stores(tmp)) == 1
            if it == 3:
                raise exc("stop")

        rhf = RHF(water(), on_iteration=abort)
        with pytest.raises(exc, match="stop"):
            rhf.run()
        assert private_stores(tmp) == []
        assert rhf.engine.integral_store is None

    def test_the_next_store_removes_those_no_run_holds(self, tmp):
        gone = tmp / "repro-store-orphan"
        gone.mkdir()
        (gone / ".held").touch()
        (gone / "supermatrix.bin").write_bytes(b"\0" * 64)
        # a live run's store, whatever its process's pid namespace: held
        live = tmp / "repro-store-alive"
        live.mkdir()
        with open(live / ".held", "wb") as held:
            fcntl.flock(held, fcntl.LOCK_SH)
            RHF(water()).run()
        assert private_stores(tmp) == [live]


class TestDroppedStore:
    """Out of disk or memory, a private store is dropped: the run goes on
    direct, says why in ``eri_store`` and leaves nothing behind."""

    @pytest.fixture
    def direct(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(hf, "STORE_BUDGET", 0)
            return RHF(water(), "6-31g").run()

    def check(self, rhf, direct, tmp, dropped):
        res = rhf.run()
        assert res.converged and res.iterations == direct.iterations
        assert abs(res.energy - direct.energy) <= 1e-10
        assert rhf.eri_store["private"] is False
        assert dropped in rhf.eri_store["dropped"]
        assert rhf.engine.integral_store is None
        assert private_stores(tmp) == []

    def test_an_unusable_temp_dir(self, direct, tmp, monkeypatch, capsys):
        # a path through a regular file: unwritable even for root
        (tmp / "file").touch()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp / "file"))
        self.check(RHF(water(), "6-31g"), direct, tmp, "NotADirectoryError")
        from repro.cli import main

        assert main(["scf", "water"]) == 0
        assert "integrals   = direct (private store dropped: NotADirectoryError" \
            in capsys.readouterr().out

    def test_a_full_disk_while_the_fill_is_written(self, direct, tmp, monkeypatch):
        def enospc(self, tau):
            (self.path / "supermatrix.bin.tmp").write_bytes(b"\0" * 64)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store_mod.ERIStore, "_write", enospc)
        self.check(RHF(water(), "6-31g"), direct, tmp, "No space left")

    def test_no_memory_to_map_the_fill(self, direct, tmp, monkeypatch):
        def oom(*args):
            raise MemoryError("injected: no room for the supermatrix")

        monkeypatch.setattr(class_batch, "_mapped_matrices", oom)
        self.check(RHF(water(), "6-31g"), direct, tmp, "MemoryError")

    def test_a_user_store_is_not_dropped(self, tmp, tmp_path, monkeypatch):
        def oom(*args):
            raise MemoryError("injected")

        rhf = RHF(water(), integral_store=str(tmp_path / "store"))
        rhf.run()
        monkeypatch.setattr(class_batch, "_mapped_matrices", oom)
        with pytest.raises(MemoryError):
            RHF(water(), integral_store=str(tmp_path / "store")).run()


def test_the_bound_covers_a_fill_without_zeros():
    """The bound is an upper bound on the bytes a fill writes, even when
    no element is an exact zero: the matrices of all-ones blocks."""
    from repro.chem.basis.basisset import BasisSet
    from repro.chem.builders import water_cluster
    from repro.integrals.class_batch import pair_matrices
    from repro.integrals.engine import MDEngine

    for mol, basis in ((water(), "sto-3g"), (water_cluster(2, 1, 1), "6-31g")):
        engine = MDEngine(BasisSet.build(mol, basis))
        plan = engine.class_plan(1e-11)
        pieces = [(b.quartets, np.ones((b.nq, *b.dims))) for b in plan.batches]
        mj, mk = pair_matrices(engine.basis, pieces)
        stored = sum(a.nbytes for m in (mj, mk) for a in (m.data, m.indices, m.indptr))
        assert stored <= plan.stored_bytes(engine.basis.nbf)
