"""Tests for the discrete-event core and the spans a traced work-stealing
run leaves in its tracer (every task and steal at exact scheduler times)."""

import pytest

from repro.fock.stealing import run_work_stealing
from repro.obs import Tracer
from repro.runtime.event import EventQueue


def traced(queues, grid, **kwargs):
    """Work stealing over queues of task costs, with a tracer attached."""
    tracer = Tracer("work-stealing")
    outcome = run_work_stealing(queues, lambda c: c, grid, tracer=tracer, **kwargs)
    return outcome, tracer


def work_spans(tracer, proc=None):
    """``(rank, start, end)`` of every task span, sorted."""
    return sorted(
        (tid, ts, ts + dur)
        for _, _, _, _, tid, ts, dur, _ in tracer.rows("X", cat="task")
        if proc is None or tid == proc
    )


class TestTimeline:
    def test_spans_recorded_for_all_tasks(self):
        outcome, tracer = traced([[1.0, 2.0], [0.5], []], (1, 3))
        assert len(work_spans(tracer)) == 3
        assert outcome.executed_tasks.sum() == 3

    def test_steal_events_marked(self):
        _outcome, tracer = traced([[1.0] * 50, []], (1, 2))
        assert list(tracer.rows("i", names=("steal",)))

    def test_busy_fraction_balanced(self):
        outcome, tracer = traced([[1.0] * 10, [1.0] * 10], (1, 2))
        for p in (0, 1):
            busy = sum(end - start for _, start, end in work_spans(tracer, p))
            assert busy / outcome.makespan == pytest.approx(1.0, abs=0.01)

    def test_makespan_matches_outcome(self):
        # spans carry exact scheduler times: the last work span ends at
        # the slowest process's finish time
        outcome, tracer = traced([[3.0, 1.0], [0.5, 0.5]], (1, 2))
        last = max(end for _, _, end in work_spans(tracer))
        assert last == pytest.approx(outcome.makespan)

    def test_work_spans_carry_exact_start_times(self):
        _outcome, tracer = traced([[2.0, 1.0], []], (1, 2), enable_stealing=False)
        assert [(s, e) for _, s, e in work_spans(tracer, 0)] == [(0.0, 2.0), (2.0, 3.0)]


class TestEventQueue:
    def test_equal_timestamps_pop_fifo(self):
        q = EventQueue()
        keys = ["c", "a", "b", "z", "m"]
        for k in keys:
            q.schedule(1.0, k)
        popped = []
        while (ev := q.pop()) is not None:
            popped.append(ev[1])
        # insertion order, NOT heap/lexicographic order
        assert popped == keys

    def test_pop_order_independent_of_interleaving(self):
        # scheduling distinct times out of order still resolves by time,
        # with FIFO only breaking exact ties
        q = EventQueue()
        q.schedule(3.0, "late")
        q.schedule(1.0, "tie1")
        q.schedule(2.0, "mid")
        q.schedule(1.0, "tie2")
        order = []
        while (ev := q.pop()) is not None:
            order.append(ev[1])
        assert order == ["tie1", "tie2", "mid", "late"]

    def test_reschedule_invalidates_previous(self):
        q = EventQueue()
        q.schedule(1.0, "p0")
        q.schedule(5.0, "p0")  # supersedes the 1.0 event
        assert q.pop() == (5.0, "p0")
        assert q.pop() is None

    def test_cancel_drops_pending_event(self):
        q = EventQueue()
        q.schedule(1.0, "p0")
        q.schedule(2.0, "p1")
        q.cancel("p0")
        assert q.pop() == (2.0, "p1")
        assert q.pop() is None

    def test_observer_sees_full_resolution_history(self):
        log = []
        q = EventQueue(observer=lambda act, t, key: log.append((act, t, key)))
        q.schedule(1.0, "a")
        q.schedule(1.0, "b")
        q.cancel("a")
        q.schedule(2.0, "a")
        while q.pop() is not None:
            pass
        assert log == [
            ("schedule", 1.0, "a"),
            ("schedule", 1.0, "b"),
            ("cancel", 0.0, "a"),
            ("schedule", 2.0, "a"),
            ("pop", 1.0, "b"),
            ("pop", 2.0, "a"),
        ]

    def test_observer_never_sees_stale_pops(self):
        pops = []
        q = EventQueue(
            observer=lambda act, t, key: act == "pop" and pops.append(key)
        )
        q.schedule(1.0, "p0")
        q.schedule(4.0, "p0")
        q.schedule(2.0, "p1")
        while q.pop() is not None:
            pass
        assert pops == ["p1", "p0"]  # the stale (1.0, p0) never surfaces

    def test_perturbation_may_only_delay(self):
        q = EventQueue(perturb=lambda t, key: t - 0.5)
        with pytest.raises(ValueError):
            q.schedule(1.0, "p0")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, "p0")
