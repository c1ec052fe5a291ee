"""Fault-injection runtime, fault-tolerant stealing, chaos invariant,
and SCF checkpoint/restart (see docs/ROBUSTNESS.md)."""

import numpy as np
import pytest

from repro.fock.chaos import run_chaos
from repro.fock.stealing import run_work_stealing
from repro.obs.flight import CH_RETRY, CHANNELS
from repro.runtime.event import EventQueue
from repro.runtime.faults import FaultError, FaultPlan, random_plan
from repro.runtime.ga import GlobalArray, block_bounds
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats


class TestFaultPlan:
    def test_no_faults_by_default(self):
        assert not FaultPlan().has_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op_fail_rate": 1.0},
            {"op_fail_rate": -0.1},
            {"ack_loss_rate": 1.5},
            {"delay_rate": -0.5},
            {"max_retries": 0},
            {"backoff_factor": 0.5},
            {"slowdown": {0: 0.5}},
            {"deaths": {1: -1.0}},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_all_ranks_dead_rejected(self):
        plan = FaultPlan(deaths={0: 1.0, 1: 2.0})
        with pytest.raises(ValueError, match="alive"):
            plan.activate(2)

    def test_describe_mentions_faults(self):
        plan = FaultPlan(seed=3, deaths={1: 0.5}, op_fail_rate=0.1)
        text = plan.describe()
        assert "seed=3" in text and "r1" in text and "op_fail" in text

    def test_random_plan_deterministic(self):
        a = random_plan(11, 8, horizon=1.0)
        b = random_plan(11, 8, horizon=1.0)
        assert a == b
        assert a.deaths and all(0.1 <= t <= 0.7 for t in a.deaths.values())

    def test_random_plan_needs_survivor(self):
        with pytest.raises(ValueError):
            random_plan(0, 4, horizon=1.0, ndeaths=4)

    def test_activated_draws_deterministic(self):
        plan = FaultPlan(seed=5, op_fail_rate=0.3, delay_rate=0.3)
        a, b = plan.activate(2), plan.activate(2)
        seq_a = [(a.draw_failures(0), a.draw_delay(0)) for _ in range(50)]
        seq_b = [(b.draw_failures(0), b.draw_delay(0)) for _ in range(50)]
        assert seq_a == seq_b


class TestRetryCharging:
    def test_retry_channel_registered(self):
        assert CH_RETRY in CHANNELS

    def test_retries_preserve_exact_decomposition(self):
        """Retried payloads count in the Table VI/VII counters AND on the
        retry channel: the flight recorder's exact-decomposition
        invariant must hold under fault injection."""
        plan = FaultPlan(seed=1, op_fail_rate=0.3, delay_rate=0.2)
        stats = CommStats(2, LONESTAR, faults=plan.activate(2))
        for _ in range(60):
            stats.charge_comm(0, 800, ncalls=1, remote=True)
        assert stats.faults.retries[0] > 0
        stats.flight.check_against(stats)  # raises on any drift
        retry_bytes = stats.flight.per_rank(CH_RETRY, "bytes")
        assert retry_bytes[0] > 0

    def test_no_faults_means_no_retry_traffic(self):
        stats = CommStats(2, LONESTAR)
        stats.charge_comm(0, 800, ncalls=1, remote=True)
        assert stats.flight.per_rank(CH_RETRY, "bytes")[0] == 0

    def test_retries_exhausted_raises(self):
        plan = FaultPlan(seed=0, op_fail_rate=0.99, max_retries=8)
        stats = CommStats(1, LONESTAR, faults=plan.activate(1))
        with pytest.raises(FaultError, match="retries exhausted"):
            for _ in range(200):
                stats.charge_comm(0, 8, ncalls=1, remote=True)

    def test_nproc_mismatch_rejected(self):
        plan = FaultPlan(seed=0)
        with pytest.raises(ValueError):
            CommStats(4, LONESTAR, faults=plan.activate(2))


def _small_ga(stats: CommStats) -> GlobalArray:
    return GlobalArray(stats, 8, 8, block_bounds(8, 2), block_bounds(8, 1))


class TestExactlyOnceAccumulate:
    def _lossy_stats(self) -> CommStats:
        plan = FaultPlan(seed=2, op_fail_rate=0.6, ack_loss_rate=1.0)
        return CommStats(2, LONESTAR, faults=plan.activate(2))

    def test_untagged_acc_double_applies_under_ack_loss(self):
        """The hazard the tags exist to close: a failed attempt that
        applied its mutation before losing the ack gets blindly retried,
        so the target sees it twice."""
        stats = self._lossy_stats()
        ga = _small_ga(stats)
        block = np.ones((2, 2))
        n = 40
        for _ in range(n):
            ga.acc(1, 0, 0, block)
        lost = int(stats.faults.acks_lost.sum())
        assert lost > 0  # the seeded plan does lose acks
        # every lost ack applied one extra copy of the block
        np.testing.assert_array_equal(ga.data[0:2, 0:2], (n + lost) * block)

    def test_tagged_acc_is_exactly_once(self):
        stats = self._lossy_stats()
        ga = _small_ga(stats)
        block = np.ones((2, 2))
        n = 30
        for i in range(n):
            ga.acc(1, 0, 0, block, tag=("op", i))
        assert stats.faults.acks_lost.sum() > 0  # hazard did occur
        np.testing.assert_array_equal(ga.data[0:2, 0:2], n * block)

    def test_tag_replay_is_dropped(self):
        stats = CommStats(2, LONESTAR)
        ga = _small_ga(stats)
        block = np.full((2, 2), 3.0)
        ga.acc(1, 0, 0, block, tag="op-1")
        ga.acc(1, 0, 0, block, tag="op-1")  # blind retry of the same op
        np.testing.assert_array_equal(ga.data[0:2, 0:2], block)

    def test_epoch_commit_applies_once(self):
        stats = CommStats(2, LONESTAR)
        ga = _small_ga(stats)
        ga.begin_epoch("flush-0")
        ga.acc(1, 0, 0, np.ones((2, 2)), epoch="flush-0")
        ga.acc(1, 2, 0, np.ones((2, 2)), epoch="flush-0")
        assert ga.data.sum() == 0.0  # staged, not visible
        assert ga.commit_epoch("flush-0") == 2
        assert ga.data.sum() == 8.0

    def test_epoch_abort_discards(self):
        stats = CommStats(2, LONESTAR)
        ga = _small_ga(stats)
        ga.begin_epoch("flush-1")
        ga.acc(1, 0, 0, np.ones((2, 2)), epoch="flush-1")
        assert ga.abort_epoch("flush-1") == 1
        assert ga.data.sum() == 0.0

    def test_epoch_misuse_rejected(self):
        stats = CommStats(2, LONESTAR)
        ga = _small_ga(stats)
        with pytest.raises(KeyError, match="not open"):
            ga.acc(1, 0, 0, np.ones((2, 2)), epoch="nope")
        ga.begin_epoch("e")
        with pytest.raises(ValueError, match="already open"):
            ga.begin_epoch("e")


class TestEventPerturbation:
    def test_delays_only(self):
        q = EventQueue(perturb=lambda t, k: t - 1.0)
        with pytest.raises(ValueError, match="delays only"):
            q.schedule(5.0, 0)

    def test_control_events_not_perturbed(self):
        plan = FaultPlan(seed=0, delay_rate=1.0, delay_seconds=10.0)
        state = plan.activate(2)
        assert state.perturb_event(5.0, ("death", 1)) == 5.0
        assert state.perturb_event(5.0, 0) >= 5.0


class TestFaultTolerantStealing:
    def _grid_queues(self, nproc=4, per_rank=8):
        return [[(p, i) for i in range(per_rank)] for p in range(nproc)]

    def test_death_mid_run_recovers_all_tasks(self):
        executed = []
        queues = self._grid_queues()
        plan = FaultPlan(seed=0, deaths={0: 2.5})
        out = run_work_stealing(
            queues,
            lambda t: 1.0,
            (1, 4),
            on_task=lambda p, t: executed.append((p, t)),
            faults=plan.activate(4),
        )
        all_tasks = {t for q in self._grid_queues() for t in q}
        assert {t for _, t in executed} == all_tasks
        assert out.dead_ranks == [0]
        assert out.recoveries  # someone adopted the orphans
        # the dead rank executed nothing that survived
        survivors_executed = {t for p, t in executed if p != 0}
        assert survivors_executed >= {t for t in all_tasks if t[0] == 0}

    def test_death_after_completion_reexecutes_lost_results(self):
        """A rank dying after it drained its queue (but before any flush)
        still loses its unflushed results: survivors must re-execute
        them even though everyone was already idle."""
        executed = []
        queues = [[("a", i) for i in range(4)], [("b", 0)]]
        plan = FaultPlan(seed=0, deaths={0: 1000.0})
        out = run_work_stealing(
            queues,
            lambda t: 1.0,
            (1, 2),
            on_task=lambda p, t: executed.append((p, t)),
            faults=plan.activate(2),
            enable_stealing=False,  # rank 0 commits its whole queue itself
        )
        assert out.dead_ranks == [0]
        assert out.reexecuted_tasks == 4
        by_live = {t for p, t in executed if p == 1}
        assert {("a", i) for i in range(4)} <= by_live
        assert out.makespan >= 1000.0

    def test_straggler_slows_its_own_batches_only(self):
        plan = FaultPlan(seed=0, slowdown={0: 3.0})
        out = run_work_stealing(
            [[0] * 5, [1] * 5],
            lambda t: 1.0,
            (1, 2),
            faults=plan.activate(2),
            enable_stealing=False,
        )
        assert out.finish_time[0] == pytest.approx(15.0)
        assert out.finish_time[1] == pytest.approx(5.0)

    def test_seeded_rng_scan_is_reproducible(self):
        def run(seed):
            steals = run_work_stealing(
                [[i for i in range(40)], [], [], []],
                lambda t: 1.0,
                (2, 2),
                rng=np.random.default_rng(seed),
            ).steals
            return [(s.thief, s.victim, s.ntasks) for s in steals]

        assert run(9) == run(9)

    def test_executed_history_tracked_only_under_faults(self):
        queues = [[1, 2], [3]]
        plain = run_work_stealing(queues, lambda t: 1.0, (1, 2))
        assert plain.executed_history is None
        faulted = run_work_stealing(
            [[1, 2], [3]], lambda t: 1.0, (1, 2),
            faults=FaultPlan(seed=0).activate(2),
        )
        assert faulted.executed_history is not None


class TestChaosInvariant:
    """The tentpole acceptance test: for seeded fault plans including a
    rank death, the numeric build completes and F matches the fault-free
    build to <= 1e-12."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_fock_matches_fault_free(self, seed):
        res = run_chaos(
            "water", "sto-3g", nproc=4, seed=seed, ndeaths=1
        )
        assert res.plan.deaths  # the plan really kills a rank
        assert res.fock_error <= 1e-12
        assert res.energy_error <= 1e-10
        assert res.passed
        # recovery overhead is measurable, never silent
        res.faulty.stats.flight.check_against(res.faulty.stats)
        assert res.overhead["dead_ranks"] == sorted(res.plan.deaths)
        assert res.overhead["makespan_faulty"] >= res.overhead["makespan_clean"]

    def test_two_deaths_and_heavy_loss(self):
        plan = FaultPlan(
            seed=42, slowdown={0: 4.0}, deaths={1: 1e-4, 2: 2e-4},
            op_fail_rate=0.2, delay_rate=0.2,
        )
        res = run_chaos("water", "sto-3g", nproc=4, plan=plan)
        assert res.passed
        assert res.overhead["dead_ranks"] == [1, 2]
        assert res.overhead["retries_total"] > 0

    def test_chaos_run_deterministic(self):
        a = run_chaos("water", "sto-3g", nproc=4, seed=5)
        b = run_chaos("water", "sto-3g", nproc=4, seed=5)
        np.testing.assert_array_equal(a.faulty.fock, b.faulty.fock)
        assert a.overhead == b.overhead


class TestSimulateUnderFaults:
    def test_simulated_gtfock_survives_faults(self):
        from repro.chem.basis.basisset import BasisSet
        from repro.chem.builders import water
        from repro.fock.reorder import reorder_basis
        from repro.fock.screening_map import ScreeningMap
        from repro.fock.simulate import simulate_gtfock
        from repro.integrals.schwarz import schwarz_model

        basis = reorder_basis(BasisSet.build(water(), "sto-3g"))
        screen = ScreeningMap(basis, schwarz_model(basis), 1e-10)
        clean = simulate_gtfock(basis, screen, cores=48)
        plan = random_plan(3, 4, horizon=clean.t_fock_max)
        faulty = simulate_gtfock(basis, screen, cores=48, faults=plan)
        assert faulty.dead_ranks == sorted(plan.deaths)
        assert faulty.t_fock_max >= 0.0
        assert faulty.fault_overhead["plan"] == plan.describe()
        assert faulty.comm_by_channel.get("retry", 0) >= 0


class TestCheckpointRestart:
    def test_bitwise_resume(self, tmp_path):
        from repro.chem.builders import water
        from repro.scf.checkpoint import checkpoint_paths
        from repro.scf.hf import RHF

        mol = water()
        ref = RHF(mol, "sto-3g").run()
        ck = tmp_path / "ck"
        RHF(mol, "sto-3g", max_iter=3, checkpoint_dir=str(ck)).run()
        assert checkpoint_paths(ck)
        resumed = RHF(
            mol, "sto-3g", checkpoint_dir=str(ck), restart=True
        ).run()
        assert resumed.converged
        assert resumed.iterations == ref.iterations
        assert resumed.energy == ref.energy  # bitwise, not approx
        assert resumed.energy_history == ref.energy_history

    def test_snapshot_roundtrip(self, tmp_path):
        from repro.scf.checkpoint import load_checkpoint, save_checkpoint
        from repro.scf.diis import DIIS

        rng = np.random.default_rng(0)
        d = rng.normal(size=(4, 4))
        diis = DIIS()
        diis.push(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        path = save_checkpoint(tmp_path, 7, d, -1.5, [-1.0, -1.5], diis)
        assert path.name == "scf_ckpt_0007.npz"
        assert not list(tmp_path.glob("*.tmp"))  # atomic write cleaned up
        ck = load_checkpoint(path)
        assert ck.iteration == 7
        assert ck.energy == -1.5
        np.testing.assert_array_equal(ck.density, d)
        assert len(ck.diis_focks) == 1
        restored = DIIS()
        restored.load_state(ck.diis_focks, ck.diis_errors)
        np.testing.assert_array_equal(
            restored.extrapolate(), diis.extrapolate()
        )

    def test_latest_checkpoint_empty(self, tmp_path):
        from repro.scf.checkpoint import checkpoint_paths

        assert checkpoint_paths(tmp_path) == []
        assert checkpoint_paths(tmp_path / "missing") == []

    def test_restart_requires_dir(self):
        from repro.chem.builders import water
        from repro.scf.hf import RHF

        with pytest.raises(ValueError, match="checkpoint_dir"):
            RHF(water(), "sto-3g", restart=True)


class TestChaosCLI:
    def test_chaos_subcommand(self, tmp_path):
        import json

        from repro.cli import main

        report = tmp_path / "chaos.html"
        summary = tmp_path / "chaos.json"
        rc = main(
            [
                "chaos", "water", "--basis", "sto-3g", "--nproc", "4",
                "--seed", "7", "--deaths", "1",
                "--report", str(report), "--json", str(summary),
            ]
        )
        assert rc == 0
        payload = json.loads(summary.read_text())
        assert payload["passed"] is True
        assert payload["fock_error"] <= 1e-12
        html = report.read_text()
        assert "Fault injection" in html and "retry" in html

    def test_every_family_finishes_through_one_tail(self, tmp_path, capsys):
        """A broken invariant: exit 1, the family's failure line on
        stderr, and the family's ``to_json()`` in the ``--json`` file."""
        import json

        from repro.cli import main

        summary = tmp_path / "scf.json"
        rc = main(
            [
                "chaos", "water", "--family", "scf", "--seed", "2",
                "--tolerance", "1e-30", "--json", str(summary),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(
            "scf chaos invariant FAILED: max |dF| "
        )
        # the line names the broken invariant and only that one; the
        # counts it used to repeat are in the summary on stdout
        assert captured.err.rstrip().endswith("max |dF| <= tolerance")
        assert (
            "corrupted quartet blocks: 6  rescued on reference kernel: 6"
            in captured.out
        )
        assert captured.out.startswith("scf chaos run: H2O/sto-3g\n  plan: ")
        payload = json.loads(summary.read_text())
        assert sorted(payload) == [
            "basis", "energy_error", "eri_rescues", "family", "fock_error",
            "molecule", "passed", "quartets_corrupted", "seed", "tolerance",
        ]
        assert payload["family"] == "scf" and payload["passed"] is False

    def test_service_family_resolves_names_like_its_workers(self, tmp_path):
        from repro.service import run_service_chaos

        with pytest.raises(KeyError, match="known:.*C24H12.*water"):
            run_service_chaos(tmp_path / "queue", molecule="C999")

    def test_export_faults_metrics(self):
        from repro.obs.metrics import MetricsRegistry, export_faults

        res = run_chaos("water", "sto-3g", nproc=4, seed=1)
        reg = MetricsRegistry()
        export_faults(res.faulty.faults, res.faulty.outcome, registry=reg)
        text = reg.to_prometheus()
        assert "repro_faults_retries_total" in text
        assert "repro_faults_dead_ranks" in text
