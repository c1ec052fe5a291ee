"""Tests for the simulated runtime: machine, accounting, GlobalArray, events."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.event import EventQueue
from repro.runtime.faults import FaultPlan
from reference_centralized import SharedCounter
from repro.runtime.ga import GlobalArray, block_bounds, grid_shape
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats


class TestMachineConfig:
    def test_defaults_match_table1(self):
        assert LONESTAR.bandwidth == 5.0e9
        assert LONESTAR.cores_per_node == 12

    def test_transfer_time(self):
        cfg = MachineConfig(bandwidth=1e9, latency=1e-6)
        assert cfg.transfer_time(1e9, 1) == pytest.approx(1.0 + 1e-6)
        assert cfg.transfer_time(0, 3) == pytest.approx(3e-6)

    def test_with_override(self):
        cfg = LONESTAR.with_(bandwidth=1e9)
        assert cfg.bandwidth == 1e9
        assert LONESTAR.bandwidth == 5e9  # original untouched

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(bandwidth=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth": 0.0},
            {"latency": -1e-6},
            {"latency": 0.0},
            {"t_int_gtfock": 0.0},
            {"t_int_nwchem": -4.2e-6},
            {"queue_service": 0.0},
            {"task_overhead": -1.0},
            {"element_size": 0},
            {"cores_per_node": 0},
        ],
    )
    def test_nonpositive_fields_rejected(self, kwargs):
        """Every rate/time field must be strictly positive: zero bandwidth
        divides by zero, zero t_int makes tasks free, negative latency
        moves clocks backwards."""
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)

    def test_validation_error_names_the_field(self):
        with pytest.raises(ValueError, match="latency"):
            MachineConfig(latency=0.0)
        with pytest.raises(ValueError, match="cores_per_node"):
            MachineConfig(cores_per_node=-3)

    def test_with_override_revalidates(self):
        with pytest.raises(ValueError):
            LONESTAR.with_(bandwidth=0.0)


class TestGridShape:
    @given(st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_factorization(self, p):
        r, c = grid_shape(p)
        assert r * c == p
        assert r <= c

    def test_square_numbers(self):
        assert grid_shape(16) == (4, 4)
        assert grid_shape(12) == (3, 4)

    def test_block_bounds(self):
        b = block_bounds(10, 3)
        assert b[0] == 0 and b[-1] == 10
        assert np.all(np.diff(b) > 0)

    def test_block_bounds_invalid(self):
        with pytest.raises(ValueError):
            block_bounds(2, 5)


class TestCommStats:
    def test_charge_comm_accumulates(self):
        st_ = CommStats(2, LONESTAR)
        st_.charge_comm(0, 1000, ncalls=2, remote=True)
        assert st_.calls[0] == 2
        assert st_.bytes[0] == 1000
        assert st_.clock[0] > 0
        assert st_.clock[1] == 0

    def test_local_cheaper_than_remote(self):
        a = CommStats(2, LONESTAR)
        b = CommStats(2, LONESTAR)
        a.charge_comm(0, 10_000, remote=True)
        b.charge_comm(0, 10_000, remote=False)
        assert b.clock[0] < a.clock[0]

    def test_barrier_synchronizes(self):
        st_ = CommStats(3, LONESTAR)
        st_.charge_compute(1, 5.0)
        t = st_.barrier()
        assert t == pytest.approx(5.0)
        assert np.all(st_.clock == 5.0)

    def test_bad_process_rejected(self):
        st_ = CommStats(2, LONESTAR)
        with pytest.raises(IndexError):
            st_.charge_comm(2, 10)

    def test_negative_compute_rejected(self):
        st_ = CommStats(1, LONESTAR)
        with pytest.raises(ValueError):
            st_.charge_compute(0, -1.0)


def _stats_state(stats: CommStats) -> dict:
    state = {
        f: getattr(stats, f).tolist()
        for f in ("calls", "bytes", "remote_calls", "remote_bytes",
                  "clock", "comm_time", "comp_time")
    }
    state["flight"] = stats.flight.to_json()
    if stats.faults is not None:
        state["retries"] = stats.faults.retries.tolist()
        state["rng"] = stats.faults.rng.bit_generator.state
    return state


class TestChargeCommBatch:
    """``charge_comm_batch`` == the same ops through ``charge_comm``."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.one_of(st.integers(0, 10**6), st.floats(0, 1e6)),
                st.integers(0, 5),
            ),
            max_size=30,
        ),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_one_by_one(self, ops, unique_ranks, faulty):
        if unique_ranks:  # the vectorised path: every rank at most once
            ops = list({op[0]: op for op in ops}.values())
        procs = [op[0] for op in ops]
        nbytes = [op[1] for op in ops]
        ncalls = [op[2] for op in ops]

        def fresh():
            faults = None
            if faulty:
                faults = FaultPlan(
                    seed=9, op_fail_rate=0.3, delay_rate=0.3
                ).activate(5)
            stats = CommStats(5, LONESTAR, faults=faults)
            stats.charge_compute(3, 1e-3)  # pre-charged clock
            return stats

        one, batch = fresh(), fresh()
        for p, b, c in ops:
            one.charge_comm(p, b, ncalls=c, channel="task_get")
        batch.charge_comm_batch(procs, nbytes, ncalls, channel="task_get")
        assert _stats_state(batch) == _stats_state(one)

    def test_resolved_ops_record_what_the_caller_charged(self):
        """A scheduler that owns the clock passes ``dt``: counted and
        recorded as given, no fault draw, clock left alone."""
        faults = FaultPlan(seed=1, op_fail_rate=0.9).activate(2)
        rng_before = faults.rng.bit_generator.state
        stats = CommStats(2, LONESTAR, faults=faults)
        stats.charge_comm_batch(
            [1, 1, 0], [0.0, 64.0, 0.0], [1, 6, 1], channel="counter",
            dt=np.array([3e-5, 1e-5, 3e-5]),
        )
        assert stats.calls.tolist() == [1, 7]
        assert stats.remote_bytes.tolist() == [0, 64]
        assert stats.comm_time.tolist() == [3e-5, 3e-5 + 1e-5]
        assert not stats.clock.any()
        assert stats.flight.per_rank("counter", "time").tolist() == [
            3e-5, 3e-5 + 1e-5
        ]
        assert faults.rng.bit_generator.state == rng_before


class TestGlobalArray:
    @pytest.fixture
    def ga(self):
        stats = CommStats(4, LONESTAR)
        return GlobalArray(stats, 10, 10, [0, 5, 10], [0, 5, 10])

    def test_owner_map(self, ga):
        assert ga.owner(0, 0) == 0
        assert ga.owner(0, 7) == 1
        assert ga.owner(7, 0) == 2
        assert ga.owner(9, 9) == 3

    def test_local_slice_partition(self, ga):
        seen = np.zeros((10, 10), dtype=int)
        for p in range(4):
            rs, cs = ga.local_slice(p)
            seen[rs, cs] += 1
        assert np.all(seen == 1)

    def test_get_put_roundtrip(self, ga):
        block = np.arange(6, dtype=float).reshape(2, 3)
        ga.put(0, 4, 3, block)
        out = ga.get(1, 4, 6, 3, 6)
        assert np.allclose(out, block)

    def test_acc_accumulates(self, ga):
        ga.acc(0, 2, 2, np.ones((2, 2)))
        ga.acc(3, 2, 2, np.ones((2, 2)))
        assert np.allclose(ga.get(0, 2, 4, 2, 4), 2.0)

    def test_calls_split_per_owner(self, ga):
        stats = ga.stats
        before = int(stats.calls[0])
        ga.get(0, 3, 8, 3, 8)  # spans all 4 owner blocks
        assert stats.calls[0] - before == 4

    def test_local_access_not_remote(self, ga):
        stats = ga.stats
        ga.get(0, 0, 2, 0, 2)  # proc 0 owns this
        assert stats.remote_calls[0] == 0
        assert stats.calls[0] == 1

    def test_out_of_range_rejected(self, ga):
        with pytest.raises(IndexError):
            ga.get(0, 0, 11, 0, 5)

    def test_load_to_numpy(self, ga):
        m = np.arange(100, dtype=float).reshape(10, 10)
        ga.load(m)
        assert np.allclose(ga.to_numpy(), m)

    def test_bad_bounds_rejected(self):
        stats = CommStats(1, LONESTAR)
        with pytest.raises(ValueError):
            GlobalArray(stats, 10, 10, [0, 10], [0, 5])


class TestSharedCounter:
    def test_monotone_values(self):
        stats = CommStats(3, LONESTAR)
        c = SharedCounter(stats)
        vals = [c.read_inc(p % 3) for p in range(9)]
        assert vals == list(range(9))

    def test_serialization_delays(self):
        """Simultaneous requests queue behind each other at the server."""
        stats = CommStats(4, LONESTAR)
        c = SharedCounter(stats)
        for p in range(4):
            c.read_inc(p)
        finish = np.sort(stats.clock)
        gaps = np.diff(finish)
        assert np.all(gaps >= stats.config.queue_service * 0.99)

    def test_access_count(self):
        stats = CommStats(1, LONESTAR)
        c = SharedCounter(stats)
        for _ in range(5):
            c.read_inc(0)
        assert c.accesses == 5


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.schedule(3.0, "a")
        q.schedule(1.0, "b")
        q.schedule(2.0, "c")
        assert [q.pop()[1] for _ in range(3)] == ["b", "c", "a"]
        assert q.pop() is None

    def test_reschedule_invalidates(self):
        q = EventQueue()
        q.schedule(1.0, "a")
        q.schedule(5.0, "a")  # supersedes
        t, k = q.pop()
        assert (t, k) == (5.0, "a")
        assert q.pop() is None

    def test_cancel(self):
        q = EventQueue()
        q.schedule(1.0, "x")
        q.cancel("x")
        assert q.pop() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, "x")

    def test_stable_tiebreak(self):
        q = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_cancel_then_reschedule_revives(self):
        q = EventQueue()
        q.schedule(1.0, "a")
        q.cancel("a")
        q.schedule(2.0, "a")
        assert q.pop() == (2.0, "a")
        assert q.pop() is None

    def test_cancel_unknown_key_is_noop(self):
        q = EventQueue()
        q.cancel("never-scheduled")
        q.schedule(1.0, "a")
        assert q.pop() == (1.0, "a")

    def test_cancel_only_affects_its_key(self):
        q = EventQueue()
        q.schedule(1.0, "a")
        q.schedule(2.0, "b")
        q.cancel("a")
        assert q.pop() == (2.0, "b")
        assert q.pop() is None

    def test_reschedule_after_pop(self):
        q = EventQueue()
        q.schedule(1.0, "a")
        assert q.pop() == (1.0, "a")
        q.schedule(3.0, "a")
        assert q.pop() == (3.0, "a")

    def test_repeated_reschedule_keeps_last_only(self):
        q = EventQueue()
        for t in (5.0, 4.0, 3.0, 2.0):
            q.schedule(t, "a")
        assert q.pop() == (2.0, "a")
        assert q.pop() is None

    def test_len_counts_stale_entries(self):
        q = EventQueue()
        q.schedule(1.0, "a")
        q.schedule(2.0, "a")  # first entry is now stale but still heaped
        assert len(q) == 2
        assert q.pop() == (2.0, "a")
        assert len(q) == 0

    def test_cancel_inflight_among_many(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i), i)
        q.cancel(2)
        q.cancel(4)
        popped = []
        while (ev := q.pop()) is not None:
            popped.append(ev[1])
        assert popped == [0, 1, 3]
