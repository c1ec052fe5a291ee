"""Tests for the ablation studies and the command-line interface."""

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import DEMO_MOLECULES, alkane
from repro.cli import main
from repro.fock.ablation import (
    granularity_ablation,
    reordering_ablation,
    stealing_ablation,
)
from repro.fock.cost import quartet_cost_matrix
from repro.fock.partition import StaticPartition
from repro.fock.prefetch import block_footprint
from repro.fock.reorder import reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.fock.stealing import run_work_stealing
from repro.integrals.schwarz import schwarz_model
from repro.runtime.machine import LONESTAR


@pytest.fixture(scope="module")
def scrambled_basis():
    basis = BasisSet.build(alkane(10), "vdz-sim")
    rng = np.random.default_rng(2)
    return basis.permuted(rng.permutation(basis.nshells))


@pytest.fixture(scope="module")
def screen10():
    basis = reorder_basis(BasisSet.build(alkane(10), "vdz-sim"))
    return basis, ScreeningMap(basis, schwarz_model(basis), 1e-10)


@pytest.fixture(scope="module")
def reorder_rows(scrambled_basis):
    return reordering_ablation(scrambled_basis, cores=192)


class TestReorderingAblation:
    def test_orderings_reduce_footprint(self, reorder_rows):
        rows = reorder_rows
        by_label = {r.label: r.metrics for r in rows}
        assert set(by_label) == {"none", "natural", "hilbert"}
        assert (
            by_label["natural"]["avg_footprint_elements"]
            < by_label["none"]["avg_footprint_elements"]
        )
        assert (
            by_label["natural"]["comm_mb_per_proc"]
            < by_label["none"]["comm_mb_per_proc"]
        )


    def test_mean_footprint_is_the_per_rank_mean(self, scrambled_basis, reorder_rows):
        """``avg_footprint_elements`` is, exactly, the mean over ranks of
        each rank's :func:`block_footprint` on the ordering's screen."""
        nproc = 192 // LONESTAR.cores_per_node
        for row in reorder_rows:
            b = scrambled_basis if row.label == "none" else reorder_basis(
                scrambled_basis, 5.0, row.label)
            screen = ScreeningMap(b, schwarz_model(b), 1e-10)
            part = StaticPartition.build(b.nshells, nproc)
            want = np.mean([block_footprint(screen, part.task_block(p)).elements
                            for p in range(nproc)])
            assert row.metrics["avg_footprint_elements"] == float(want)


class TestStealingAblation:
    def test_stealing_beats_static(self, screen10):
        basis, screen = screen10
        rows = stealing_ablation(basis, screen, cores=768)
        by_label = {r.label: r.metrics for r in rows}
        static_l = by_label["no-stealing"]["load_balance"]
        for frac in (0.25, 0.5, 1.0):
            assert by_label[f"steal-{frac:g}"]["load_balance"] <= static_l


    def test_every_scheduler_row_prices_one_task_model(self, screen10):
        """``no-stealing`` is the scheduler switched off over the queues
        the steal rows run, and ``group-1x1`` is ``steal-0.5``: a task
        costs its ERIs x t_int per core plus one task overhead."""
        basis, screen = screen10
        eris = quartet_cost_matrix(screen).eris
        part = StaticPartition.build(basis.nshells, 768 // LONESTAR.cores_per_node)
        t_task = LONESTAR.t_int_gtfock / LONESTAR.cores_per_node
        queues = [
            [float(eris[m, n]) * t_task + LONESTAR.task_overhead
             for m, n in part.task_block(p).tasks()]
            for p in range(part.nproc)
        ]
        static = run_work_stealing(
            queues, float, (part.prow, part.pcol), enable_stealing=False)
        steal = {r.label: r.metrics for r in stealing_ablation(basis, screen, cores=768)}
        assert steal["no-stealing"] == {
            "makespan": static.makespan,
            "load_balance": static.load_balance_ratio(),
            "victims_per_proc": 0.0,
        }
        grain = granularity_ablation(basis, screen, cores=768)[0]
        assert grain.label == "group-1x1"
        assert grain.metrics["makespan"] == steal["steal-0.5"]["makespan"]
        assert grain.metrics["load_balance"] == steal["steal-0.5"]["load_balance"]


class TestGranularityAblation:
    def test_coarser_tasks_fewer_count(self, screen10):
        basis, screen = screen10
        rows = granularity_ablation(basis, screen, cores=768)
        assert rows[0].metrics["ntasks"] > rows[1].metrics["ntasks"]

    def test_work_conserved(self, screen10):
        """Total makespan*p stays in the same ballpark across granularity."""
        basis, screen = screen10
        rows = granularity_ablation(basis, screen, cores=768)
        m1, m16 = rows[0].metrics["makespan"], rows[-1].metrics["makespan"]
        assert 0.5 < m1 / m16 < 2.0


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "C96H24" in out and "sto-3g" in out
        assert "demo molecules  : " + ", ".join(DEMO_MOLECULES) in out

    @pytest.mark.parametrize("argv", [
        ["scf", "nosuch"],
        ["scf", "water", "--basis", "nope"],
        ["analyze", "nosuch"],
        ["chaos", "nosuch"],
        ["perf", "profile", "nosuch"],
    ])
    def test_unknown_name_exits_2_with_the_known_ones(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: unknown" in err and "known: [" in err
        assert "Traceback" not in err

    def test_submit_rejects_unknown_names_at_submit_time(
        self, tmp_path, capsys
    ):
        queue = tmp_path / "queue"
        assert main(["submit", "watr", "--queue", str(queue)]) == 2
        assert main(["submit", "water", "--basis", "6-31",
                     "--queue", str(queue)]) == 2
        assert "unknown molecule 'watr'" in capsys.readouterr().err
        assert not queue.exists()  # nothing was enqueued

    def test_scf_h2(self, capsys):
        assert main(["scf", "h2"]) == 0
        out = capsys.readouterr().out
        assert "-1.116" in out

    def test_model_command(self, capsys):
        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1", "0"])
    def test_invalid_tau_exits_2_with_a_message(self, tau, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "water", f"--tau={tau}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tau: must be a finite threshold > 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["scf", "water", "--max-iter", "0"],
        ["scf", "water", "--jk-threads", "0"],
        ["scf", "water", "--jk-threads=-4"],
        ["submit", "water", "--max-iter", "0"],
        ["submit", "water", "--jk-threads", "0"],
        ["perf", "profile", "water", "--max-iter", "-1"],
    ])
    def test_count_below_one_exits_2_with_a_message(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        """``--max-iter 0`` used to print the core-guess energy, and
        ``--jk-threads 0`` to run serial, without a word."""
        monkeypatch.chdir(tmp_path)  # where a parsed submit queues
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = next(a for a in argv if a.startswith("--")).split("=")[0]
        assert f"argument {flag}: must be an integer >= 1" in err
        assert "Traceback" not in err
