"""Critical-path analyzer: exact decomposition, path extraction, what-ifs."""

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import benzene, water
from repro.fock.reorder import reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.fock.simulate import SimCapture, simulate_gtfock
from repro.integrals.schwarz import schwarz_model
from repro.obs.critpath import (
    DECOMP_TOL,
    analyze,
    decompose,
    extract_path,
    rank_chains,
)
from repro.obs.trace import NullTracer, Tracer
from repro.runtime.faults import random_plan


def _capture(mol, cores=48, basis_name="sto-3g", faults=None, tracer=None,
             **kw):
    basis = reorder_basis(BasisSet.build(mol, basis_name))
    screen = ScreeningMap(basis, schwarz_model(basis), 1e-10)
    capture = SimCapture()
    simulate_gtfock(
        basis, screen, cores, tracer=tracer or Tracer("test-critpath"),
        capture=capture, molecule_name=mol.name, faults=faults, **kw,
    )
    return capture


@pytest.fixture(scope="module")
def water_capture():
    return _capture(water())


class TestDecomposition:
    @pytest.mark.parametrize("cores", [48, 192])
    def test_exact_on_table3_style_runs(self, cores):
        """Acceptance: per-rank decomposition sums to makespan to 1e-9."""
        decomp = decompose(_capture(water(), cores=cores))
        assert not decomp.faulty
        assert decomp.max_residual <= DECOMP_TOL
        decomp.check()  # must not raise

    def test_exact_on_larger_molecule(self):
        decomp = decompose(_capture(benzene(), cores=192))
        assert decomp.max_residual <= DECOMP_TOL

    def test_rank_totals_rebuild_end_times(self, water_capture):
        decomp = decompose(water_capture)
        for r in decomp.ranks:
            rebuilt = r.compute + r.comm_total + r.blocked + r.residual
            assert rebuilt == pytest.approx(r.end, abs=1e-12)
            assert r.idle == pytest.approx(decomp.makespan - r.end, abs=1e-12)

    def test_idle_fraction_bounds(self, water_capture):
        # a deterministic constant of the simulation: 0.080985
        decomp = decompose(water_capture)
        assert 0.0 <= decomp.idle_fraction <= 0.30

    def test_comm_channels_are_positive(self, water_capture):
        decomp = decompose(water_capture)
        for r in decomp.ranks:
            assert all(v > 0 for v in r.comm.values())


class TestDeterminism:
    def test_event_stream_and_decomposition_repeatable(self):
        """Same inputs resolve the same event order and decomposition."""
        a, b = _capture(water()), _capture(water())
        assert a.events == b.events
        da, db = decompose(a), decompose(b)
        assert da.makespan == db.makespan
        for ra, rb in zip(da.ranks, db.ranks):
            assert ra.to_json() == rb.to_json()

    def test_decomposition_invariant_under_stealing_toggle_structure(self):
        # the invariant holds whether or not stealing rearranged work
        decomp = decompose(_capture(water(), enable_stealing=False))
        assert decomp.max_residual <= DECOMP_TOL


class TestCriticalPath:
    def test_explains_full_makespan_fault_free(self, water_capture):
        path = extract_path(water_capture)
        assert path.hops == []
        assert path.explained_ratio == pytest.approx(1.0, abs=1e-9)

    def test_blame_sums_to_path_length(self, water_capture):
        path = extract_path(water_capture)
        assert sum(t for _, t, _ in path.blame()) == pytest.approx(
            path.length
        )
        # ranked descending
        seconds = [t for _, t, _ in path.blame()]
        assert seconds == sorted(seconds, reverse=True)

    def test_chains_tile_each_rank(self, water_capture):
        chains = rank_chains(water_capture)
        finish = np.asarray(water_capture.finish, dtype=float)
        for p, chain in enumerate(chains):
            assert chain[0].start == pytest.approx(0.0, abs=1e-12)
            assert chain[-1].end == pytest.approx(finish[p], abs=1e-9)
            for prev, nxt in zip(chain, chain[1:]):
                assert nxt.start == pytest.approx(prev.end, abs=1e-9)


class TestWhatIfs:
    def test_projections_within_tolerance_of_resim(self, water_capture):
        """Acceptance: network-2x and steal-off within 15% of re-sim."""
        analysis = analyze(water_capture, resim=True, network_scale=2.0)
        by_name = {w.name: w for w in analysis.whatifs}
        for name in ("network_2x", "no_stealing"):
            w = by_name[name]
            assert w.resim_makespan is not None
            assert w.rel_err <= 0.15, (
                f"{name}: {w.rel_err:.1%} off re-simulation"
            )
        analysis.check()  # full gate: decomposition + verdicts

    def test_network_slowdown_projects_slowdown(self, water_capture):
        analysis = analyze(water_capture, resim=False, network_scale=2.0)
        by_name = {w.name: w for w in analysis.whatifs}
        assert by_name["network_2x"].speedup < 1.0
        assert by_name["perfect_balance"].speedup >= 1.0
        # without resim every scenario is projection-only
        assert all(w.resim_makespan is None for w in analysis.whatifs)

    def test_summary_round_trips_to_json(self, water_capture):
        import json

        analysis = analyze(water_capture, resim=False)
        blob = json.dumps(analysis.to_json())
        assert "decomposition" in blob and "whatifs" in blob
        s = analysis.summary()
        assert s["decomposition_ok"] is True
        assert s["explained_ratio"] == pytest.approx(1.0, abs=1e-9)


class TestFaultyRuns:
    def test_faulty_run_analyzes_without_raising(self):
        clean = _capture(water())
        plan = random_plan(
            3, 4, horizon=float(np.max(np.asarray(clean.finish)))
        )
        capture = _capture(water(), faults=plan)
        decomp = decompose(capture)
        assert decomp.faulty  # residual tolerance relaxed under faults
        decomp.check()  # must not raise on faulty runs
        analysis = analyze(capture, resim=False)
        assert analysis.path is not None
        assert analysis.summary()["explained_ratio"] > 0.0

    def test_adoption_blockage_and_hop_recorded(self):
        """Killing the bounding rank late stalls the finished ranks.

        The survivors' blocked wait must be charged explicitly, and the
        critical path must hop from a blocked segment into the dead
        rank's chain at its recorded death time.
        """
        _assert_hops_to_the_dead_bounding_rank(tracer=None)


def _assert_hops_to_the_dead_bounding_rank(tracer):
    from repro.runtime.faults import FaultPlan

    clean = _capture(water())
    finish = np.asarray(clean.finish, dtype=float)
    plan = FaultPlan(
        seed=0,
        deaths={int(finish.argmax()): float(finish.max()) * 0.99},
    )
    capture = _capture(water(), faults=plan, tracer=tracer)
    decomp = decompose(capture)
    assert any(r.blocked > 0 for r in decomp.ranks)
    path = extract_path(capture)
    assert len(path.hops) >= 1
    _waiting, dead, when = path.hops[0]
    assert dead == int(finish.argmax())
    assert when == capture.outcome.deaths[dead]
    assert any(s.kind == "blocked" for s in path.segments)


class TestUntracedRuns:
    def test_untraced_run_has_the_traced_runs_path(self, water_capture):
        """The chains are the scheduler's record, not the trace: a run
        simulated under a ``NullTracer`` gets the whole analysis."""
        analysis = analyze(
            _capture(water(), tracer=NullTracer()), resim=False)
        assert analysis.path.hops == []
        assert analysis.path.explained_ratio == 1.0
        assert analysis.to_json() == analyze(
            water_capture, resim=False).to_json()

    def test_untraced_hop_reaches_the_dead_rank(self):
        _assert_hops_to_the_dead_bounding_rank(tracer=NullTracer())


class TestMetricsExport:
    def test_gauges_exported(self, water_capture):
        from repro.obs import MetricsRegistry, session

        reg = MetricsRegistry()
        with session(metrics=reg):
            analysis = analyze(water_capture, resim=False)
            analysis.export_metrics()
        assert "repro_critpath_makespan_seconds" in reg
        assert "repro_critpath_idle_fraction" in reg
        assert "repro_critpath_blame_seconds" in reg
