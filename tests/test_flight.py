"""The per-rank flight recorder: channels, invariants, validation, reports.

The load-bearing property is **exact decomposition**: summed over
channels, the recorder's per-rank msgs/bytes equal ``CommStats.calls`` /
``CommStats.bytes`` -- every counted call is tagged exactly once.  These
tests assert it for every producer (GlobalArray, the oracle's SharedCounter,
collectives, both numeric builds, both timing simulations) and cover the
model-validation pass and the HTML run report on top.
"""

import json

import numpy as np
import pytest

from reference_centralized import SharedCounter
from reference_engine import SyntheticERIEngine
from reference_nwchem import nwchem_build
from repro.fock.gtfock import gtfock_build
from repro.fock.simulate import simulate_gtfock, simulate_nwchem
from repro.integrals.engine import MDEngine
from repro.obs.flight import (
    CH_ALLREDUCE,
    CH_BARRIER,
    CH_COUNTER,
    CH_FOCK_ACC,
    CH_GA,
    CH_PREFETCH_GET,
    CH_QUEUE,
    CH_RETRY,
    CH_STEAL_D,
    CH_STEAL_F,
    CH_STEAL_TASK,
    CH_TASK_GET,
    CHANNELS,
    FlightRecorder,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.validate import (
    FAIL,
    PASS,
    WARN,
    Deviation,
    fold_ratio,
    validate_run,
)
from repro.runtime.collectives import allreduce, barrier
from repro.runtime.ga import GlobalArray, block_bounds
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats


class TestFlightRecorder:
    def test_record_accumulates(self):
        fr = FlightRecorder(3)
        fr.record(0, CH_GA, 100, 2, 0.5)
        fr.record(0, CH_GA, 50, 1, 0.25)
        fr.record(2, CH_FOCK_ACC, 8, 1, 0.1)
        assert fr.per_rank(CH_GA, "msgs").tolist() == [3, 0, 0]
        assert fr.per_rank(CH_GA, "bytes").tolist() == [150, 0, 0]
        assert fr.per_rank(CH_FOCK_ACC, "bytes").tolist() == [0, 0, 8]
        assert fr.totals("bytes").tolist() == [150, 0, 8]

    def test_ops_do_not_touch_msgs_or_bytes(self):
        fr = FlightRecorder(2)
        fr.record_op(1, CH_QUEUE, 5)
        assert fr.per_rank(CH_QUEUE, "ops").tolist() == [0, 5]
        assert fr.totals("msgs").tolist() == [0, 0]
        assert fr.totals("bytes").tolist() == [0, 0]

    def test_channels_canonical_order(self):
        fr = FlightRecorder(1)
        fr.record(0, CH_FOCK_ACC, 1, 1, 0.0)
        fr.record(0, CH_PREFETCH_GET, 1, 1, 0.0)
        fr.record(0, "custom_channel", 1, 1, 0.0)
        assert fr.channels() == [CH_PREFETCH_GET, CH_FOCK_ACC, "custom_channel"]
        assert list(CHANNELS).index(CH_PREFETCH_GET) < list(CHANNELS).index(
            CH_FOCK_ACC
        )

    def test_matrix_shape(self):
        fr = FlightRecorder(2)
        fr.record(0, CH_GA, 10, 1, 0.0)
        fr.record(1, CH_COUNTER, 0, 1, 0.0)
        chans, m = fr.matrix("bytes")
        assert m.shape == (2, 2)
        assert m[0, chans.index(CH_GA)] == 10

    def test_check_against_names_drifting_rank(self):
        stats = CommStats(2, LONESTAR)
        stats.charge_comm(0, 100, channel=CH_GA)
        stats.flight.record(1, CH_GA, 7, 1, 0.0)  # untracked extra
        with pytest.raises(AssertionError, match="rank 1"):
            stats.flight.check_against(stats)

    def test_to_json_roundtrips(self):
        fr = FlightRecorder(2)
        fr.record(0, CH_STEAL_D, 64, 1, 0.5)
        doc = json.loads(json.dumps(fr.to_json()))
        assert doc["nproc"] == 2
        assert doc["channels"] == [CH_STEAL_D]
        assert doc["bytes"][0][0] == 64
        assert doc["time"][0][0] == 0.5

    def test_export_metrics(self):
        fr = FlightRecorder(2)
        fr.record(1, CH_PREFETCH_GET, 123, 2, 0.25)
        fr.record_op(0, CH_QUEUE, 3)
        reg = fr.export_metrics(MetricsRegistry())
        assert reg.get("repro_flight_bytes_total").value(
            proc=1, channel=CH_PREFETCH_GET
        ) == 123
        assert reg.get("repro_flight_ops_total").value(
            proc=0, channel=CH_QUEUE
        ) == 3
        text = reg.to_prometheus()
        assert 'repro_flight_msgs_total{proc="1",channel="prefetch_get"} 2' in text

    def test_bad_field_and_nproc(self):
        fr = FlightRecorder(1)
        with pytest.raises(ValueError):
            fr.per_rank(CH_GA, "nope")
        with pytest.raises(ValueError):
            FlightRecorder(0)


class TestBatchedRecording:
    """``record_batch`` / ``record_ops`` leave the recorder exactly as
    the one-op calls do, and no entry point takes an out-of-range rank."""

    @pytest.mark.parametrize("n", [0, 5, 4096])  # ops in the batch
    @pytest.mark.parametrize("per_op_channels", [False, True])
    def test_batch_equals_one_by_one(self, n, per_op_channels):
        rng = np.random.default_rng(11)
        nproc = 4
        ranks = rng.integers(0, nproc, n)  # ranks repeat inside the batch
        nbytes = rng.integers(0, 1000, n)
        ncalls = rng.integers(0, 4, n)
        dt = rng.random(n) * 1e-3
        names = (CH_COUNTER, CH_TASK_GET, CH_RETRY)
        codes = rng.integers(0, 3, n)
        one = FlightRecorder(nproc)
        batch = FlightRecorder(nproc)
        for fr in (one, batch):  # something already recorded
            fr.record(1, CH_GA, 8, 1, 0.5)
        for i in range(n):
            ch = names[codes[i]] if per_op_channels else CH_GA
            one.record(int(ranks[i]), ch, int(nbytes[i]), int(ncalls[i]),
                       float(dt[i]))
        if per_op_channels:
            lookup = np.array([CHANNELS.index(ch) for ch in names])
            batch.record_batch(ranks, lookup[codes], nbytes, ncalls, dt)
        else:
            batch.record_batch(ranks, CH_GA, nbytes, ncalls, dt)
        assert batch.to_json() == one.to_json()

    def test_scalars_broadcast_and_empty_batch_is_a_no_op(self):
        fr = FlightRecorder(3)
        fr.record_batch(np.arange(3), CH_BARRIER, 0, 2, 1e-5)
        assert fr.per_rank(CH_BARRIER, "msgs").tolist() == [2, 2, 2]
        assert fr.per_rank(CH_BARRIER, "time").tolist() == [1e-5] * 3
        fr.record_batch([], CH_ALLREDUCE, 0, 1, 0.0)
        assert fr.channels() == [CH_BARRIER]

    def test_record_ops_is_record_op_per_rank(self):
        one, batch = FlightRecorder(3), FlightRecorder(3)
        for rank, nops in enumerate([4, 0, 2]):
            one.record_op(rank, CH_STEAL_TASK, nops)
        batch.record_ops(CH_STEAL_TASK, np.array([4, 0, 2]))
        assert batch.to_json() == one.to_json()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_rank_is_rejected_not_wrapped(self, bad):
        """``proc = -1`` used to charge the last rank through NumPy
        wrap-around everywhere but ``CommStats.charge_comm``."""
        fr = FlightRecorder(3)
        stats = CommStats(3, LONESTAR)
        calls = [
            lambda: fr.record(bad, CH_GA, 8, 1, 0.0),
            lambda: fr.record_op(bad, CH_QUEUE),
            lambda: fr.record_batch([0, bad, -7], CH_GA, 8, 1, 0.0),
            lambda: SharedCounter(stats).read_inc(bad),
            lambda: stats.charge_comm_batch([1, bad], 8.0),
            lambda: stats.charge_comm_batch([1, bad], 8.0, dt=np.zeros(2)),
        ]
        for call in calls:
            with pytest.raises(IndexError, match=rf"process {bad} out of range"):
                call()
        assert fr.channels() == [] and stats.flight.channels() == []
        assert not stats.calls.any() and not stats.clock.any()


class TestRuntimeTagging:
    def test_charge_comm_default_channel_is_ga(self):
        stats = CommStats(2, LONESTAR)
        stats.charge_comm(0, 80)
        assert stats.flight.channels() == [CH_GA]
        stats.flight.check_against(stats)

    def test_charge_steal_counts_without_advancing_clock(self):
        stats = CommStats(2, LONESTAR)
        dt = stats.charge_steal(1, 1000)
        assert dt > 0
        assert float(stats.clock[1]) == 0.0
        assert int(stats.calls[1]) == 1
        assert int(stats.remote_bytes[1]) == 1000
        assert stats.flight.per_rank(CH_STEAL_D, "bytes").tolist() == [0, 1000]
        stats.flight.check_against(stats)

    def test_global_array_channel_threading(self):
        stats = CommStats(4, LONESTAR)
        ga = GlobalArray(stats, 8, 8, block_bounds(8, 2), block_bounds(8, 2))
        ga.get(0, 0, 8, 0, 8, channel=CH_PREFETCH_GET)  # spans all 4 owners
        assert int(stats.flight.per_rank(CH_PREFETCH_GET, "msgs")[0]) == 4
        ga.acc(1, 0, 0, np.ones((2, 2)), channel=CH_FOCK_ACC)
        assert CH_FOCK_ACC in stats.flight.channels()
        stats.flight.check_against(stats)

    def test_shared_counter_records_counter_channel(self):
        stats = CommStats(3, LONESTAR)
        ctr = SharedCounter(stats)
        for p in (0, 1, 2, 0):
            ctr.read_inc(p)
        msgs = stats.flight.per_rank(CH_COUNTER, "msgs")
        assert msgs.tolist() == [2, 1, 1]
        assert int(stats.flight.per_rank(CH_COUNTER, "bytes").sum()) == 0
        stats.flight.check_against(stats)

    def test_collectives_tagged_with_exact_sums(self):
        stats = CommStats(8, LONESTAR)
        barrier(stats)
        allreduce(stats, 800)
        assert CH_BARRIER in stats.flight.channels()
        # the pinned allreduce amounts (see test_collectives) land on the
        # allreduce channel untouched
        assert int(stats.flight.per_rank("allreduce", "bytes")[0]) == 2400
        assert int(stats.flight.per_rank("allreduce", "msgs")[0]) == 3
        stats.flight.check_against(stats)


class TestNumericBuildChannels:
    def test_gtfock_exact_decomposition_and_steal_channels(
        self, synthetic_engine, synthetic_density
    ):
        eng = SyntheticERIEngine(synthetic_engine.basis)
        h = np.zeros((eng.basis.nbf,) * 2)
        res = gtfock_build(eng, h, synthetic_density, 9, 1e-12)
        flight = res.stats.flight
        flight.check_against(res.stats)
        chans = flight.channels()
        assert CH_PREFETCH_GET in chans
        assert CH_FOCK_ACC in chans
        assert len(res.outcome.steals) > 0
        assert CH_STEAL_D in chans
        # steal protocol atomics live in ops, never in GA counters
        assert int(flight.per_rank(CH_STEAL_TASK, "ops").sum()) > 0
        assert int(flight.per_rank(CH_STEAL_TASK, "msgs").sum()) == 0
        # queue_ops bookkeeping matches the scheduler's own counters
        total_ops = int(
            flight.per_rank(CH_QUEUE, "ops").sum()
            + flight.per_rank(CH_STEAL_TASK, "ops").sum()
        )
        assert total_ops == int(res.outcome.queue_ops.sum())

    def test_gtfock_no_steal_run_has_no_steal_traffic(
        self, methane_engine, methane_matrices, methane_fock_reference
    ):
        _s, h, _x, d = methane_matrices
        res = gtfock_build(
            MDEngine(methane_engine.basis), h, d, 4, 1e-11,
            enable_stealing=False,
        )
        assert np.allclose(res.fock, methane_fock_reference, atol=1e-11)
        flight = res.stats.flight
        flight.check_against(res.stats)
        assert int(flight.per_rank(CH_STEAL_D, "bytes").sum()) == 0
        assert int(flight.per_rank(CH_STEAL_F, "bytes").sum()) == 0

    def test_gtfock_split_flush_is_numerically_invisible(
        self, methane_engine, methane_matrices, methane_fock_reference
    ):
        """The fock_acc/steal_f flush split must not change the result."""
        _s, h, _x, d = methane_matrices
        res = gtfock_build(MDEngine(methane_engine.basis), h, d, 6, 1e-11)
        assert np.allclose(res.fock, methane_fock_reference, atol=1e-11)
        res.stats.flight.check_against(res.stats)

    def test_nwchem_channels(self, methane_engine, methane_matrices):
        _s, h, _x, d = methane_matrices
        res = nwchem_build(MDEngine(methane_engine.basis), h, d, 3, 1e-11)
        flight = res.stats.flight
        flight.check_against(res.stats)
        chans = flight.channels()
        assert CH_TASK_GET in chans
        assert CH_FOCK_ACC in chans
        assert CH_COUNTER in chans
        # one counter hit per GetTask, every rank
        assert int(flight.per_rank(CH_COUNTER, "msgs").sum()) == (
            res.outcome.counter_accesses
        )


class TestSimulationChannels:
    @pytest.fixture(scope="class")
    def screen(self, synthetic_engine):
        from repro.fock.screening_map import ScreeningMap

        basis = synthetic_engine.basis
        return ScreeningMap(basis, synthetic_engine.schwarz(), 1e-12)

    def test_simulate_gtfock_by_channel(self, synthetic_engine, screen):
        res = simulate_gtfock(synthetic_engine.basis, screen, cores=48)
        assert set(res.comm_by_channel) >= {CH_PREFETCH_GET, CH_FOCK_ACC}
        assert sum(res.comm_by_channel.values()) == pytest.approx(
            res.comm_mb_per_proc * 1e6 * res.nproc, rel=1e-12
        )

    def test_simulate_nwchem_by_channel(self, synthetic_engine, screen):
        res = simulate_nwchem(synthetic_engine.basis, screen, cores=8)
        assert CH_TASK_GET in res.comm_by_channel
        assert CH_COUNTER in res.comm_by_channel


class TestValidation:
    def test_fold_ratio(self):
        assert fold_ratio(2.0, 1.0) == 2.0
        assert fold_ratio(1.0, 2.0) == 2.0
        assert fold_ratio(0.0, 0.0) == 1.0
        assert fold_ratio(1.0, 0.0) == float("inf")

    def test_deviation_statuses(self):
        d = Deviation("x", predicted=1.0, measured=1.5, warn_at=2.0, fail_at=4.0)
        assert d.status == PASS
        d = Deviation("x", predicted=1.0, measured=3.0, warn_at=2.0, fail_at=4.0)
        assert d.status == WARN
        d = Deviation("x", predicted=1.0, measured=9.0, warn_at=2.0, fail_at=4.0)
        assert d.status == FAIL

    def test_validate_gtfock_run(self, synthetic_engine, synthetic_density):
        from repro.model.perfmodel import PerfModel

        eng = SyntheticERIEngine(synthetic_engine.basis)
        h = np.zeros((eng.basis.nbf,) * 2)
        res = gtfock_build(eng, h, synthetic_density, 4, 1e-12)
        s = res.outcome.avg_steals_per_proc
        model = PerfModel.from_screening(res.screen, LONESTAR, s=s)
        v = validate_run(model, res.stats, s_measured=s)
        names = {d.name for d in v.deviations}
        assert {"v1_plus_v2", "volume_mb", "t_comm", "overhead_ratio"} <= names
        assert v.status in (PASS, WARN, FAIL)
        assert v.get("volume_mb").measured == pytest.approx(
            res.stats.volume_mb_per_process()
        )
        doc = json.loads(json.dumps(v.to_json()))
        assert doc["nproc"] == 4
        assert "deviations" in doc
        assert "volume_mb" in v.text()


class TestRunReport:
    @pytest.fixture(scope="class")
    def water_report(self):
        from repro.obs.report import run_report

        report, result = run_report("water", "sto-3g", nproc=4)
        return report, result

    def test_acceptance_water(self, water_report):
        """The ISSUE's acceptance shape on the cheap basis (6-31g in CI)."""
        report, result = water_report
        # per-rank counters sum exactly to the CommStats totals
        report.flight.check_against(result.stats)
        # Table VI volume deviation within the documented tolerance
        assert report.validation.get("volume_mb").status != FAIL
        assert len(report.steals) > 0

    def test_html_self_contained(self, water_report, tmp_path):
        from repro.obs.report import render_report

        report, _ = water_report
        html = render_report(report)
        assert "<svg" in html and "</html>" in html
        # no external assets: every src/href is inline, data:, or anchor
        for marker in ('src="http', "src='http", '<link', '<script src'):
            assert marker not in html
        assert "data:application/json;base64," in html
        for needle in (
            CH_PREFETCH_GET, "Steal-event timeline", "Load balance",
            "Model vs measured", "table view", "prefers-color-scheme",
        ):
            assert needle in html

    @pytest.mark.parametrize("page", ["run", "critpath", "torture", "ledger"])
    def test_every_page_is_well_formed(self, water_report, page):
        """All four pages come out of one skeleton: every element closes
        in order, one ``<main>``, every ``<section>`` inside it."""
        from html.parser import HTMLParser
        from pathlib import Path

        from repro.obs import RunRecord
        from repro.obs import report as rep

        report, _ = water_report
        if page == "run":
            html = rep.render_report(report)
        elif page == "critpath":
            html = rep.render_critpath_report(report.critpath)
        elif page == "torture":
            html = rep.render_torture_report([
                {"case": "stretched <h2>", "description": "d", "passed": True,
                 "converged": True, "status": "converged", "iterations": 9,
                 "energy": -1.0, "trail": ["damp & shift"],
                 "guard": {"level": 1}},
                {"case": "aborted", "passed": False, "aborted": True,
                 "abort_reason": "nan", "vanilla_converged": False},
            ])
        else:
            html = rep.render_ledger_report(RunRecord(
                Path("runs/r1"),
                {"command": "scf", "molecule": "water", "config": {"a": 1},
                 "provenance": {"python": "3"}, "started_utc": "t0"},
                [{"label": "scf_iteration", "iteration": 1, "energy": -74.9,
                  "wall_s": 0.1}],
                {"exit_code": 0, "energy": -74.96, "phases": [
                    {"name": "fock_build", "calls": 2, "wall_s": 0.2,
                     "cpu_s": 0.2, "max_wall_s": 0.1}]},
            ))

        class Balance(HTMLParser):
            def __init__(self):
                super().__init__()
                self.stack, self.seen = [], []

            def handle_starttag(self, tag, attrs):
                if tag != "meta":  # the one void element the pages use
                    self.seen.append((tag, tuple(self.stack)))
                    self.stack.append(tag)

            def handle_endtag(self, tag):
                assert self.stack and self.stack.pop() == tag, self.getpos()

        parser = Balance()
        parser.feed(html)
        parser.close()
        assert parser.stack == []
        opened = [tag for tag, _ in parser.seen]
        assert opened.count("main") == 1 and opened.count("footer") == 1
        sections = [above for tag, above in parser.seen if tag == "section"]
        assert sections and all(
            above == ("html", "body", "main") for above in sections
        )

    def test_write_report(self, water_report, tmp_path):
        from repro.obs.report import write_report

        report, _ = water_report
        out = tmp_path / "report.html"
        write_report(str(out), report)
        assert out.stat().st_size > 10_000
