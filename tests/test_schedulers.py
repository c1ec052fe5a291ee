"""Tests for the work-stealing and centralized scheduler simulations."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_centralized import reference_centralized
from reference_stealing import reference_work_stealing, victim_scan_order
from repro.fock import centralized
from repro.fock.centralized import run_centralized
from repro.fock.nwchem_cost import NWChemTaskArrays
from repro.fock.stealing import run_work_stealing, scan_rank
from repro.obs import SIM_PID, Tracer
from repro.obs.critpath import PathSegment, rank_chains
from repro.obs.flight import CH_COUNTER, CH_STEAL_D, CH_TASK_GET
from repro.runtime.faults import FaultPlan, random_plan
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats


class TestVictimScanOrder:
    def test_excludes_self(self):
        order = victim_scan_order(3, 2, 3)
        assert 3 not in order
        assert sorted(order) == [0, 1, 2, 4, 5]

    def test_own_row_first(self):
        # proc 4 in a 2x3 grid is at (1, 1); row 1 = procs 3,4,5
        order = victim_scan_order(4, 2, 3)
        assert set(order[:2]) == {5, 3}


    @given(st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_order_matches_the_oracle(self, prow, pcol):
        """1xp, px1, square and non-square grids: the order the seeded
        scan derives per steal attempt is the precomputed list, for every
        thief."""
        nproc = prow * pcol
        for thief in range(nproc):
            order = victim_scan_order(thief, prow, pcol)
            assert [
                scan_rank(i, thief, pcol, nproc) for i in range(nproc - 1)
            ] == order


def _differential_case(seed, grid=None, kind=None):
    """Random queues x grid x steal knobs x fault plan, from one seed
    (``grid`` and the fault ``kind`` can be pinned)."""
    rng = np.random.default_rng(seed)
    prow, pcol = grid or (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    nproc = prow * pcol
    costs = rng.uniform(0.05, 2.0, size=400)
    costs[rng.random(400) < 0.1] = 0.5  # exact ties on task boundaries
    lens = rng.integers(0, 40, size=nproc)
    if seed % 3 == 0:
        lens[rng.integers(nproc)] = 120  # one overloaded rank
    bounds = np.concatenate(([0], np.cumsum(lens)))
    queues = [np.arange(bounds[p], bounds[p + 1]) % 400 for p in range(nproc)]
    knobs = dict(
        steal_fraction=float(rng.choice([0.25, 0.5, 1.0])),
        enable_stealing=bool(seed % 7),
    )
    plan = None
    kind = seed % 4 if kind is None else kind
    if kind and nproc > 1:
        plan = random_plan(
            seed, nproc, horizon=float(costs.mean() * lens.mean()) or 1.0,
            ndeaths=min(kind - 1, nproc - 1), nstragglers=kind % 2,
        )
    return (prow, pcol), queues, costs, knobs, plan, bool(seed % 2)


def _run_scheduler(run, grid, queues, cost_of, knobs, plan, permute):
    nproc = grid[0] * grid[1]
    # a permuted clean run: a plan that injects nothing, for its seeded
    # tie-break generator
    if plan is None and permute:
        plan = FaultPlan(seed=5)
    fstate = plan.activate(nproc) if plan is not None else None
    stats = CommStats(nproc, LONESTAR, faults=fstate)
    stats.clock[:] = np.linspace(0.0, 0.2, nproc)
    tracer, log = Tracer(), []
    out = run(
        queues, cost_of, grid, stats=stats,
        d_copy_bytes=lambda victim: 4096 * (victim + 1),
        tracer=tracer, faults=fstate,
        event_observer=lambda *ev: log.append(ev), **knobs,
    )
    return out, stats, tracer, log


def _assert_same_events(tr, ref_tr, rtol):
    """Field for field, in order; times equal to rounding."""
    events, ref_events = tr.events, ref_tr.events
    assert len(events) == len(ref_events)
    for ev, rev in zip(events, ref_events):
        assert (ev.phase, ev.name, ev.cat, ev.pid, ev.tid, ev.args) == (
            rev.phase, rev.name, rev.cat, rev.pid, rev.tid, rev.args
        )
        assert ev.ts == pytest.approx(rev.ts, rel=rtol, abs=1e-15)
        assert ev.dur == pytest.approx(rev.dur, rel=1e-9, abs=1e-15)


class TestAgainstReferenceScan:
    """The candidate-list scheduler vs the per-victim Python scan it
    replaced (``tests/reference_stealing.py``): same decisions, same
    counters, times equal to rounding."""

    RTOL = 1e-12
    #: production-shaped grids: the 3888-core grid and both degenerate ones
    SHAPES = [(18, 18), (1, 24), (24, 1)]

    @pytest.mark.parametrize("seed", range(48))
    def test_same_schedule_counters_and_trace(self, seed):
        self._assert_matches_reference(*_differential_case(seed))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kind", [0, 3], ids=["clean", "faulted"])
    @pytest.mark.parametrize("grid", SHAPES, ids=lambda g: f"{g[0]}x{g[1]}")
    def test_production_grid_shapes(self, grid, kind, seed):
        """Seed 1 scans a seeded permutation, seed 2 the row-wise order;
        the faulted cases kill two ranks and slow one down."""
        grid, queues, costs, knobs, plan, permute = _differential_case(
            seed, grid=grid, kind=kind
        )
        out = self._assert_matches_reference(
            grid, queues, costs, {**knobs, "enable_stealing": True}, plan,
            permute,
        )
        assert len(out.steals) > grid[0] * grid[1] // 2
        assert len(out.dead_ranks) == (2 if kind else 0)

    def _assert_matches_reference(self, grid, queues, costs, knobs, plan, permute):
        ref, ref_stats, ref_tr, ref_log = _run_scheduler(
            reference_work_stealing, grid, [q.tolist() for q in queues],
            lambda c: float(costs[c]), knobs, plan, permute,
        )
        # array queues take the vectorised cost path, list queues the
        # per-task one: both must reproduce the reference
        for new_queues, cost_of in (
            (queues, lambda codes: costs[codes]),
            ([q.tolist() for q in queues], lambda c: float(costs[c])),
        ):
            out, stats, tr, log = _run_scheduler(
                run_work_stealing, grid, new_queues, cost_of, knobs, plan,
                permute,
            )
            assert [(s.thief, s.victim, s.ntasks) for s in out.steals] == [
                (s.thief, s.victim, s.ntasks) for s in ref.steals
            ]
            np.testing.assert_allclose(
                [s.time for s in out.steals], [s.time for s in ref.steals],
                rtol=self.RTOL,
            )
            np.testing.assert_array_equal(out.queue_ops, ref.queue_ops)
            np.testing.assert_array_equal(out.executed_tasks, ref.executed_tasks)
            for field in ("finish_time", "executed_cost", "blocked_time",
                          "initial_cost"):
                np.testing.assert_allclose(
                    getattr(out, field), getattr(ref, field), rtol=self.RTOL
                )
            assert out.deaths == ref.deaths
            assert out.reexecuted_tasks == ref.reexecuted_tasks
            assert [(r.rank, r.ntasks, r.reexecuted) for r in out.recoveries] == [
                (r.rank, r.ntasks, r.reexecuted) for r in ref.recoveries
            ]
            if ref.executed_history is not None:
                assert [
                    [int(task) for task, _ in h] for h in out.executed_history
                ] == [[task for task, _ in h] for h in ref.executed_history]
            # the scheduler's D-copy rule == the caller's closure: counters,
            # comm_time and every flight matrix bitwise
            for field in ("calls", "bytes", "remote_calls", "remote_bytes",
                          "comm_time"):
                np.testing.assert_array_equal(
                    getattr(stats, field), getattr(ref_stats, field), field
                )
            assert stats.flight.channels() == ref_stats.flight.channels()
            for field in ("ops", "msgs", "bytes", "time"):
                np.testing.assert_array_equal(
                    stats.flight.matrix(field)[1], ref_stats.flight.matrix(field)[1]
                )
            np.testing.assert_allclose(stats.clock, ref_stats.clock, rtol=self.RTOL)
            # event log: same actions on the same keys in the same order
            assert [(a, k) for a, _, k in log] == [(a, k) for a, _, k in ref_log]
            np.testing.assert_allclose(
                [t for _, t, _ in log], [t for _, t, _ in ref_log], rtol=self.RTOL
            )
            # trace: columnar task runs == per-call virtual_span
            _assert_same_events(tr, ref_tr, self.RTOL)
        return out

    def test_cases_cover_the_fault_paths(self):
        """The seeds above really exercise deaths, adoption, stragglers,
        delayed events and permuted scans."""
        seen = {"death": 0, "recover": 0, "steal": 0, "permuted": 0}
        for seed in range(48):
            grid, queues, costs, knobs, plan, permute = _differential_case(seed)
            out, *_ = _run_scheduler(
                run_work_stealing, grid, queues, lambda c: costs[c], knobs,
                plan, permute,
            )
            seen["death"] += bool(out.dead_ranks)
            seen["recover"] += bool(out.recoveries)
            seen["steal"] += bool(out.steals)
            seen["permuted"] += bool(out.steals) and (permute or plan is not None)
        assert all(n >= 5 for n in seen.values()), seen

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pop_times_never_decrease_under_delays(self, seed):
        """The candidate list drops a rank for good once it fails the
        stealability test; that is only sound because every event is
        scheduled at or after the time of the pop that caused it, delays
        included."""
        grid, queues, costs, knobs, _, _ = _differential_case(seed)
        nproc = grid[0] * grid[1]
        fstate = random_plan(
            seed, nproc, horizon=float(costs.mean() * 20), ndeaths=min(1, nproc - 1),
            nstragglers=1, delay_rate=0.5,
        ).activate(nproc)
        delayed = []
        perturb = fstate.perturb_event

        def counting(time, key):
            out = perturb(time, key)
            delayed.append(out > time)
            return out

        fstate.perturb_event = counting
        log = []
        run_work_stealing(
            queues, lambda c: costs[c], grid, faults=fstate,
            event_observer=lambda *ev: log.append(ev), **knobs,
        )
        pops = [t for action, t, _ in log if action == "pop"]
        assert pops == sorted(pops)
        if len(delayed) >= 30:
            assert any(delayed)


#: tracer span name -> path segment kind
_SPAN_KINDS = {
    "prefetch": "prefetch",
    "flush": "flush",
    "steal_copy": "steal",
    "batch": "compute",
    "blocked": "blocked",
}


def _event_chains(events, finish, nproc):
    """``critpath.rank_chains`` as it read the run's trace back, before the
    scheduler recorded its own segments: one ``TraceEvent`` and one
    ``PathSegment`` per virtual span, then a sort."""
    raw = [[] for _ in range(nproc)]
    for ev in events:
        if ev.phase != "X" or ev.pid != SIM_PID or ev.name not in _SPAN_KINDS:
            continue
        detail = ""
        if ev.name == "steal_copy":
            detail = f"D copy from p{ev.args.get('victim', '?')}"
        elif ev.name == "batch":
            detail = f"{ev.args.get('ntasks', '?')} tasks"
        raw[ev.tid].append(
            PathSegment(ev.tid, ev.ts, ev.end, _SPAN_KINDS[ev.name], detail))
    chains = []
    for p in range(nproc):
        chain, cursor = [], 0.0
        for s in sorted(raw[p], key=lambda s: (s.start, s.end)):
            if s.start > cursor + 1e-9:
                chain.append(PathSegment(p, cursor, s.start, "slack"))
            chain.append(s)
            cursor = max(cursor, s.end)
        if finish[p] > cursor + 1e-9:
            chain.append(PathSegment(p, cursor, float(finish[p]), "slack"))
        chains.append(chain)
    return chains


class TestColumnarTraceCapture:
    """A finished batch reaches the tracer as *views* of the scheduler's
    own cost and task arrays.  That is only sound if nothing writes to
    them afterwards, so this run has everything that touches a batch
    later -- steals, stragglers (``cum *= factor`` in
    ``begin``), an early and a late rank death -- and reads the trace
    only once it is over."""

    GRID = (2, 3)

    def _run(self, run, as_lists=False):
        rng = np.random.default_rng(17)
        costs = rng.uniform(0.05, 2.0, size=400)
        lens = [150, 12, 30, 8, 40, 0]
        bounds = np.concatenate(([0], np.cumsum(lens)))
        queues = [np.arange(bounds[p], bounds[p + 1]) for p in range(6)]
        cost_of = lambda codes: costs[codes]
        if as_lists:
            queues = [q.tolist() for q in queues]
            cost_of = lambda c: float(costs[c])
        plan = FaultPlan(
            seed=17, slowdown={0: 1.7, 2: 2.5}, deaths={4: 9.0, 1: 58.6})
        knobs = dict(steal_fraction=0.5, enable_stealing=True)
        out, _, tracer, _ = _run_scheduler(
            run, self.GRID, queues, cost_of, knobs, plan, False)
        return out, tracer

    def test_views_survive_later_steals_and_deaths(self):
        ref, ref_tr = self._run(reference_work_stealing, as_lists=True)
        out, tr = self._run(run_work_stealing)
        assert out.dead_ranks == [1, 4] and out.recoveries
        assert sum(s.time > 58.6 for s in out.steals) >= 5
        # ranks whose captured batches were robbed *after* an earlier
        # batch of theirs had been handed to the tracer
        robbed_again = {s.victim for s in out.steals} & {
            s.thief for s in out.steals}
        assert robbed_again
        # the log really holds views of arrays the scheduler went on using
        runs = [row for row in tr._log if type(row) is not tuple]
        assert all(run.cum.base is not None for run in runs)
        assert sum(len(run.cum) for run in runs) == out.executed_tasks.sum()
        _assert_same_events(tr, ref_tr, 1e-12)

    def test_chains_and_timeline_from_rows_equal_the_event_readers(self):
        """The chains built from the scheduler's segment record equal the
        ones read back from the same run's trace."""
        out, tr = self._run(run_work_stealing)
        nproc = len(out.finish_time)
        capture = SimpleNamespace(
            outcome=out, finish=out.finish_time, nproc=nproc,
            prefetch_time=np.zeros(nproc), flush_time=np.zeros(nproc))
        chains = rank_chains(capture)
        oracle = _event_chains(tr.events, out.finish_time, capture.nproc)
        assert [len(c) for c in chains] == [len(c) for c in oracle]
        for chain, ref_chain in zip(chains, oracle):
            for seg, ref_seg in zip(chain, ref_chain):
                assert seg == ref_seg
        kinds = {seg.kind for chain in chains for seg in chain}
        assert {"compute", "steal", "blocked", "slack"} <= kinds


def _sim_run(molecule, cores, faults=None):
    """A traced ``simulate_gtfock`` capture on ``molecule``/STO-3G."""
    from repro.chem import builders
    from repro.chem.basis.basisset import BasisSet
    from repro.fock.reorder import reorder_basis
    from repro.fock.screening_map import ScreeningMap
    from repro.fock.simulate import SimCapture, simulate_gtfock
    from repro.integrals.schwarz import schwarz_model

    mol = getattr(builders, molecule)()
    basis = reorder_basis(BasisSet.build(mol, "sto-3g"))
    screen = ScreeningMap(basis, schwarz_model(basis), 1e-10)
    capture, tracer = SimCapture(), Tracer()
    simulate_gtfock(
        basis, screen, cores, tracer=tracer, capture=capture, faults=faults
    )
    return capture, tracer


def _build_run(inputs, nproc, faults=None):
    """A ``gtfock_build`` capture, traced by its session's tracer."""
    from repro.fock.gtfock import gtfock_build
    from repro.fock.simulate import SimCapture
    from repro.obs import session

    capture, tracer = SimCapture(), Tracer()
    with session(tracer=tracer):
        gtfock_build(*inputs, nproc, faults=faults, capture=capture)
    return capture, tracer


@pytest.fixture(scope="module")
def water_631g():
    """(engine, hcore, density) of water/6-31G."""
    from repro.fock.chaos import build_inputs

    return build_inputs("water", "6-31g")[:3]


#: (runner, molecule, cores or ranks, faults): None is fault-free, an int
#: the seed of a ``random_plan`` over the clean makespan, "late-death" the
#: bounding rank killed at 99 % of it
_CHAIN_CASES = (
    [("sim", "water", 48, None), ("sim", "water", 192, None),
     ("sim", "benzene", 192, None), ("sim", "benzene", 768, None)]
    + [("sim", "water", 48, seed) for seed in range(6)]
    + [("sim", "water", 48, "late-death")]
    + [("build", "water", 4, None), ("build", "water", 9, None)]
    + [("build", "water", 4, seed) for seed in range(3)]
)


class TestChainsFromTheRecord:
    """``critpath.rank_chains`` builds its chains from the scheduler's own
    segment record and the capture's prefetch / flush times; the oracle
    reads the same run's trace back (``_event_chains``)."""

    @pytest.mark.parametrize(
        "case", _CHAIN_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_chains_equal_the_trace_readers(self, case, water_631g):
        runner, molecule, n, faults = case
        if runner == "sim":
            run = lambda plan=None: _sim_run(molecule, n, plan)
        else:
            run = lambda plan=None: _build_run(water_631g, n, plan)
        plan = None
        if faults is not None:
            clean, _ = run()
            finish = np.asarray(clean.finish)
            if faults == "late-death":
                plan = FaultPlan(seed=0, deaths={
                    int(finish.argmax()): float(finish.max()) * 0.99})
            else:
                plan = random_plan(faults, clean.nproc, float(finish.max()))
        capture, tracer = run(plan)
        chains = rank_chains(capture)
        assert chains == _event_chains(
            tracer.events, capture.finish, capture.nproc)
        assert bool(capture.outcome.deaths) == (plan is not None)
        if faults == "late-death":
            assert any(s.kind == "blocked" for c in chains for s in c)


class TestWorkStealingConservation:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_every_task_executed_once(self, seed):
        rng = np.random.default_rng(seed)
        nproc = int(rng.integers(1, 9))
        prow, pcol = 1, nproc
        queues = [
            [(p, i) for i in range(int(rng.integers(0, 12)))] for p in range(nproc)
        ]
        executed = []
        out = run_work_stealing(
            queues,
            cost_of=lambda t: float(rng.uniform(0.1, 2.0)),
            grid=(prow, pcol),
            on_task=lambda p, t: executed.append(t),
        )
        all_tasks = [t for q in queues for t in q]
        assert sorted(executed) == sorted(all_tasks)
        assert out.executed_tasks.sum() == len(all_tasks)

    def test_stealing_rebalances_skewed_load(self):
        """One loaded process + idle thieves: near-perfect balance."""
        nproc = 4
        queues = [[i for i in range(400)]] + [[] for _ in range(nproc - 1)]
        with_steal = run_work_stealing(
            queues, lambda t: 1.0, (1, nproc), enable_stealing=True
        )
        without = run_work_stealing(
            [list(q) for q in queues], lambda t: 1.0, (1, nproc),
            enable_stealing=False,
        )
        assert with_steal.makespan < 0.5 * without.makespan
        assert without.makespan == pytest.approx(400.0)
        assert with_steal.steals

    def test_balanced_load_no_steals_needed(self):
        queues = [[0] * 10 for _ in range(4)]
        out = run_work_stealing(queues, lambda t: 1.0, (2, 2))
        assert out.makespan == pytest.approx(10.0)
        assert out.load_balance_ratio() == pytest.approx(1.0)

    def test_steal_cost_charged(self):
        """The D copy is paid once per (thief, victim) pair, on the
        ``steal_d`` channel, and delays the thief's stolen batch."""
        asked = []

        def d_copy_bytes(victim):
            asked.append(victim)
            return 8e6

        stats = CommStats(2, LONESTAR)
        tracer = Tracer()
        out = run_work_stealing(
            [list(range(100)), []], lambda t: 1.0, (1, 2), stats=stats,
            d_copy_bytes=d_copy_bytes, tracer=tracer,
        )
        dt = LONESTAR.transfer_time(8e6, 1)
        assert len(out.steals) > 1 and asked == [0]
        assert stats.calls.tolist() == [0, 1]
        assert stats.bytes.tolist() == [0, 8_000_000]
        assert stats.comm_time.tolist() == [0.0, dt]
        assert stats.flight.per_rank(CH_STEAL_D, "time").tolist() == [0.0, dt]
        (copy,) = [e for e in tracer.events if e.name == "steal_copy"]
        assert (copy.tid, copy.ts, copy.dur) == (1, 0.0, dt)
        with pytest.raises(ValueError, match="needs stats"):
            run_work_stealing(
                [[0], []], lambda t: 1.0, (1, 2), d_copy_bytes=d_copy_bytes
            )

    def test_in_flight_task_not_stolen(self):
        """A victim mid-task keeps that task."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1)], []]
        # task 0 runs [0, 10); thief arrives at t=0 -> may only steal task 1
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
        )
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 1
        assert out.makespan == pytest.approx(10.0)

    def test_start_clock_offsets_respected(self):
        stats = CommStats(2, LONESTAR)
        stats.clock[1] = 100.0
        out = run_work_stealing(
            [[0], [1]], lambda t: 1.0, (1, 2), stats=stats,
            enable_stealing=False,
        )
        assert out.finish_time[0] == pytest.approx(1.0)
        assert out.finish_time[1] == pytest.approx(101.0)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_work_stealing([[1]], lambda t: 1.0, (2, 2))


class TestStealBoundary:
    """The ``bisect_right`` split when a steal lands exactly on a task
    boundary of the victim's cumulative-cost array."""

    def test_steal_exactly_at_task_boundary(self):
        """Thief arrives exactly when the victim finishes its first task:
        that task is done, the second is in flight, only the third is
        stealable."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1), ("v", 2)], [("t", 0)]]
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
        )
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 0  # in flight at t=10: not stealable
        assert executed_by[("v", 2)] == 1  # the one stealable task
        assert len(out.steals) == 1
        assert out.steals[0].time == pytest.approx(10.0)
        assert out.makespan == pytest.approx(20.0)

    def test_queue_empties_exactly_at_steal_time(self):
        """Thief arrives exactly when the victim's queue drains: nothing
        is stealable and the scan must come back empty, not split a
        phantom task."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1)], [("t", 0)]]

        def cost_of(task):
            return 20.0 if task[0] == "t" else 10.0

        out = run_work_stealing(
            queues,
            cost_of,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
        )
        assert not out.steals
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 0
        assert out.makespan == pytest.approx(20.0)

    def test_arrival_as_the_last_task_starts_is_a_strict_miss(self):
        """At t = 20 the victim's threshold (cum[1] = 20) equals
        ``(t - start) + 1e-15`` exactly -- the 1e-15 is below half an
        ulp of 20 -- and its last task is in flight: nothing to steal."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1), ("v", 2)], [("t", 0)]]
        out = run_work_stealing(
            queues,
            lambda task: 20.0 if task[0] == "t" else 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
        )
        assert not out.steals
        assert [executed_by[("v", i)] for i in range(3)] == [0, 0, 0]
        assert out.queue_ops.tolist() == [2, 2]  # enqueue + one empty probe each
        assert out.makespan == pytest.approx(30.0)

    def test_boundary_shifts_under_straggler_fault(self):
        """Same arrival instant, but a straggler victim has only finished
        part of its first task -- the split must use the *scaled*
        cumulative costs, freeing the later tasks for the thief."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1), ("v", 2)], [("t", 0)]]
        plan = FaultPlan(seed=0, slowdown={0: 2.0})
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
            faults=plan.activate(2),
        )
        # victim runs at half speed: at t=10 task ("v",0) is still mid-
        # flight, so both later tasks are stealable (vs one in the
        # healthy case); with steal_fraction=0.5 the thief takes one
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 0
        assert executed_by[("v", 2)] == 1
        assert len(out.steals) == 1
        assert out.steals[0].ntasks == 1
        # the straggler's remaining work dominates the makespan
        assert out.makespan == pytest.approx(40.0)

    def test_boundary_exact_with_faults_attached_but_quiet(self):
        """A fault state with no active faults must not perturb the
        boundary arithmetic (same split as the fault-free run)."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1), ("v", 2)], [("t", 0)]]
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
            faults=FaultPlan(seed=3).activate(2),
        )
        assert executed_by[("v", 2)] == 1
        assert executed_by[("v", 1)] == 0
        assert out.makespan == pytest.approx(20.0)


def _tasks(cost) -> NWChemTaskArrays:
    """Per-task arrays of compute seconds ``cost`` and no fetches."""
    cost = np.asarray(cost, dtype=float)
    return NWChemTaskArrays(
        cost=cost, comm_bytes=np.zeros(cost.size),
        comm_calls=np.zeros(cost.size, dtype=np.int64), ntasks=cost.size,
        total_eris=0.0,
    )


class TestCentralized:
    def test_all_tasks_executed_once(self):
        cost = 0.01 * np.arange(1, 51)
        out = run_centralized(_tasks(cost), 3, CommStats(3, LONESTAR))
        assert out.executed_tasks.sum() == 50
        assert out.executed_cost.sum() == pytest.approx(cost.sum())
        assert out.counter_accesses == 50 + 3  # one failed pull per process

    def test_single_process(self):
        out = run_centralized(_tasks(np.ones(10)), 1, CommStats(1, LONESTAR))
        assert out.executed_cost[0] == pytest.approx(10.0)

    def test_load_spread_roughly_even(self):
        out = run_centralized(_tasks(np.full(400, 0.001)), 4, CommStats(4, LONESTAR))
        assert out.executed_tasks.min() >= 80

    def test_counter_serialization_dominates_tiny_tasks(self):
        """With zero-cost tasks, the makespan is the serialized counter."""
        ntasks = 200
        out = run_centralized(_tasks(np.zeros(ntasks)), 8, CommStats(8, LONESTAR))
        min_serial = ntasks * LONESTAR.queue_service
        assert out.makespan >= min_serial * 0.9


# exact multiples of the machine's latency (5 us) and counter service
# time (25 us) make ranks reach the counter at bitwise-equal clocks
_SECONDS = st.sampled_from([0.0, 5e-6, 2.5e-5, 3e-5, 1e-4, 3.3e-4])


@st.composite
def _centralized_case(draw):
    nproc = draw(st.integers(1, 40))
    tasks = draw(st.lists(
        st.tuples(_SECONDS, st.sampled_from([0, 0, 6, 12]), st.integers(0, 5000)),
        max_size=120,
    ))
    arrays = NWChemTaskArrays(
        cost=np.array([t[0] for t in tasks], dtype=float),
        comm_calls=np.array([t[1] for t in tasks], dtype=np.int64),
        # a zero-call task may still carry bytes: it charges nothing
        comm_bytes=np.array([8.0 * t[2] for t in tasks]),
        ntasks=len(tasks),
        total_eris=0.0,
    )
    clocks = draw(st.lists(_SECONDS, min_size=nproc, max_size=nproc))
    return nproc, arrays, clocks, draw(st.sampled_from([1, 7, 64]))


def _centralized_stats(nproc, clocks):
    stats = CommStats(nproc, LONESTAR)
    stats.clock[:] = clocks
    return stats


def _fetch_hook(stats, arrays):
    """The closure ``simulate_nwchem`` used to hand the per-task loop."""
    def comm_of(proc, tid):
        if arrays.comm_calls[tid]:
            stats.charge_comm(
                proc, float(arrays.comm_bytes[tid]),
                ncalls=int(arrays.comm_calls[tid]), channel=CH_TASK_GET,
            )
    return comm_of


def _assert_same_run(ref_stats, ref, new_stats, new):
    """Everything the run leaves behind, exactly (one NumPy: bitwise)."""
    assert np.array_equal(new.finish_time, ref.finish_time)
    assert np.array_equal(new.executed_cost, ref.executed_cost)
    assert np.array_equal(new.executed_tasks, ref.executed_tasks)
    assert new.counter_accesses == ref.counter_accesses
    for field in ("clock", "comm_time", "comp_time", "calls", "bytes",
                  "remote_calls", "remote_bytes"):
        assert np.array_equal(
            getattr(new_stats, field), getattr(ref_stats, field)
        ), field
    for field in ("msgs", "bytes", "time", "ops"):
        ref_ch, ref_m = ref_stats.flight.matrix(field)
        new_ch, new_m = new_stats.flight.matrix(field)
        assert new_ch == ref_ch
        assert np.array_equal(new_m, ref_m), field


class TestCentralizedAgainstReference:
    """The array-fed, batch-accounted loop against the heap-per-task,
    charge-as-you-go oracle in ``tests/reference_centralized.py``."""

    @given(_centralized_case())
    @settings(max_examples=120, deadline=None)
    def test_array_fed_run_equals_the_oracle(self, case):
        nproc, arrays, clocks, flush_every = case
        ref_stats = _centralized_stats(nproc, clocks)
        ref = reference_centralized(
            list(range(arrays.ntasks)), nproc, ref_stats,
            lambda tid: float(arrays.cost[tid]),
            comm_of=_fetch_hook(ref_stats, arrays),
        )
        new_stats = _centralized_stats(nproc, clocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(centralized, "FLUSH_EVERY", flush_every)
            new = run_centralized(arrays, nproc, new_stats)
        _assert_same_run(ref_stats, ref, new_stats, new)

    def test_the_cases_reach_ties_overflow_and_short_runs(self):
        """The strategy really produces what the test is named after."""
        nproc, ntasks = 6, 40
        arrays = NWChemTaskArrays(
            cost=np.full(ntasks, 2.5e-5), comm_bytes=np.zeros(ntasks),
            comm_calls=np.zeros(ntasks, dtype=np.int64), ntasks=ntasks,
            total_eris=0.0,
        )
        # the pending buffer overflows into several flushes
        stats = _centralized_stats(nproc, np.zeros(nproc))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(centralized, "FLUSH_EVERY", 16)
            out = run_centralized(arrays, nproc, stats)
        assert out.counter_accesses == ntasks + nproc > 2 * 16
        assert int(stats.flight.per_rank(CH_COUNTER, "msgs").sum()) == ntasks + nproc
        # equal clocks are served in rank order: rank p pulls task p
        first = _tasks(2.5e-5 * np.arange(1, nproc + 1))
        stats = _centralized_stats(nproc, np.zeros(nproc))
        out = run_centralized(first, nproc, stats)
        assert out.executed_cost.tolist() == first.cost.tolist()
        few = NWChemTaskArrays(
            arrays.cost[:2], arrays.comm_bytes[:2], arrays.comm_calls[:2], 2, 0.0
        )
        out = run_centralized(few, nproc, _centralized_stats(nproc, np.zeros(nproc)))
        assert out.executed_tasks.tolist() == [1, 1, 0, 0, 0, 0]
        assert out.counter_accesses == 2 + nproc

    def test_negative_cost_and_fault_draws_are_rejected(self):
        arrays = NWChemTaskArrays(
            np.array([1e-5, -1e-5]), np.zeros(2), np.zeros(2, dtype=np.int64),
            2, 0.0,
        )
        with pytest.raises(ValueError, match="negative compute time"):
            run_centralized(arrays, 2, CommStats(2, LONESTAR))
        faulty = CommStats(
            2, LONESTAR, faults=FaultPlan(seed=1, op_fail_rate=0.2).activate(2)
        )
        with pytest.raises(ValueError, match="transient faults"):
            run_centralized(arrays, 2, faulty)
