"""Tests for the timing-level simulation of both algorithms."""

import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane
from repro.fock.cost import quartet_cost_matrix
from repro.fock.nwchem_cost import build_nwchem_task_arrays
from repro.fock.reorder import reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.fock.simulate import simulate_gtfock, simulate_nwchem
from repro.integrals.schwarz import schwarz_model
from repro.obs import MetricsRegistry, session
from repro.runtime.machine import LONESTAR


@pytest.fixture(scope="module")
def setup():
    basis = reorder_basis(BasisSet.build(alkane(12), "vdz-sim"))
    screen = ScreeningMap(basis, schwarz_model(basis), 1e-10)
    costs = quartet_cost_matrix(screen)
    return basis, screen, costs


class TestGTFockTiming:
    def test_compute_time_scales_inversely(self, setup):
        basis, screen, costs = setup
        t12 = simulate_gtfock(basis, screen, 12, costs=costs).t_comp_avg
        t96 = simulate_gtfock(basis, screen, 96, costs=costs).t_comp_avg
        assert t12 / t96 == pytest.approx(8.0, rel=0.15)

    def test_single_node_work_matches_total(self, setup):
        """T_comp at 12 cores == total ERIs * t_int / 12 (+ overheads)."""
        basis, screen, costs = setup
        r = simulate_gtfock(basis, screen, 12, costs=costs)
        expected = costs.total_eris * LONESTAR.t_int_gtfock / 12
        assert r.t_comp_avg == pytest.approx(expected, rel=0.02)

    def test_stealing_improves_balance(self, setup):
        basis, screen, costs = setup
        cores = 768
        with_steal = simulate_gtfock(basis, screen, cores, costs=costs)
        without = simulate_gtfock(
            basis, screen, cores, costs=costs, enable_stealing=False
        )
        assert with_steal.load_balance < without.load_balance
        assert with_steal.t_fock_max <= without.t_fock_max * 1.01

    def test_load_balance_near_one(self, setup):
        """Table VIII: the ratio stays close to 1 with stealing."""
        basis, screen, costs = setup
        for cores in (48, 384):
            r = simulate_gtfock(basis, screen, cores, costs=costs)
            assert r.load_balance < 1.25

    def test_comm_counters_populated(self, setup):
        basis, screen, costs = setup
        r = simulate_gtfock(basis, screen, 192, costs=costs)
        assert r.comm_mb_per_proc > 0
        assert r.ga_calls_per_proc >= 6  # at least prefetch + flush regions

    def test_invalid_cores(self, setup):
        basis, screen, costs = setup
        with pytest.raises(ValueError):
            simulate_gtfock(basis, screen, 0, costs=costs)

    def test_idle_gauge_describes_the_latest_run(self, setup):
        """A smaller run after a larger one leaves no stale rank series,
        and another algorithm's series are left alone."""
        basis, screen, costs = setup
        with session(metrics=MetricsRegistry()) as obs:
            simulate_gtfock(basis, screen, 192, costs=costs)  # 16 ranks
            simulate_nwchem(basis, screen, 12, costs=costs)  # 12 ranks
            last = simulate_gtfock(basis, screen, 48, costs=costs)  # 4 ranks
            gauge = obs.metrics.get("repro_sim_idle_seconds")
        idle: dict[str, dict[int, float]] = {}
        for _, labels, value in gauge.samples():
            idle.setdefault(labels["algorithm"], {})[int(labels["proc"])] = value
        assert sorted(idle["gtfock"]) == [0, 1, 2, 3]
        assert sorted(idle["nwchem"]) == list(range(12))
        assert sum(idle["gtfock"].values()) / 4 == pytest.approx(
            last.idle_seconds_avg, rel=1e-12
        )
        assert max(idle["gtfock"].values()) > 0


class TestNWChemTiming:
    def test_total_work_preserved(self, setup):
        """Task costs are normalized to the exact total ERI count."""
        basis, screen, costs = setup
        arrays = build_nwchem_task_arrays(
            screen, costs.total_eris, LONESTAR.t_int_nwchem, 0.0
        )
        expected = costs.total_eris * LONESTAR.t_int_nwchem
        assert arrays.cost.sum() == pytest.approx(expected, rel=1e-6)

    def test_compute_scales_inversely(self, setup):
        basis, screen, costs = setup
        t12 = simulate_nwchem(basis, screen, 12, costs=costs).t_comp_avg
        t96 = simulate_nwchem(basis, screen, 96, costs=costs).t_comp_avg
        assert t12 / t96 == pytest.approx(8.0, rel=0.2)

    def test_counter_accesses_exceed_tasks(self, setup):
        basis, screen, costs = setup
        r = simulate_nwchem(basis, screen, 48, costs=costs)
        assert r.counter_accesses >= r.ntasks

    def test_comm_volume_decreases_per_proc(self, setup):
        """Per-task fetches spread over more processes."""
        basis, screen, costs = setup
        v48 = simulate_nwchem(basis, screen, 48, costs=costs).comm_mb_per_proc
        v768 = simulate_nwchem(basis, screen, 768, costs=costs).comm_mb_per_proc
        assert v768 < v48


class TestPaperShapeTargets:
    """The qualitative relations of Sec IV, on the scaled alkane."""

    @pytest.fixture(scope="class")
    def sweep(self, setup):
        basis, screen, costs = setup
        cfg = LONESTAR.with_(t_int_nwchem=LONESTAR.t_int_gtfock * 0.8)
        out = {}
        for cores in (12, 3888):
            out[("gtfock", cores)] = simulate_gtfock(
                basis, screen, cores, config=cfg, costs=costs
            )
            out[("nwchem", cores)] = simulate_nwchem(
                basis, screen, cores, config=cfg, costs=costs
            )
        return out

    def test_nwchem_faster_at_small_scale(self, sweep):
        assert sweep[("nwchem", 12)].t_fock_max < sweep[("gtfock", 12)].t_fock_max

    def test_gtfock_lower_overhead_at_scale(self, sweep):
        g = sweep[("gtfock", 3888)]
        n = sweep[("nwchem", 3888)]
        assert g.t_overhead_avg < n.t_overhead_avg

    def test_gtfock_fewer_calls_everywhere(self, sweep):
        for cores in (12, 3888):
            assert (
                sweep[("gtfock", cores)].ga_calls_per_proc
                < sweep[("nwchem", cores)].ga_calls_per_proc
            )

    def test_gtfock_lower_volume_at_small_scale(self, sweep):
        assert (
            sweep[("gtfock", 12)].comm_mb_per_proc
            < sweep[("nwchem", 12)].comm_mb_per_proc
        )

    def test_gtfock_scales_better(self, sweep):
        g_speedup = sweep[("gtfock", 12)].t_fock_max / sweep[("gtfock", 3888)].t_fock_max
        n_speedup = sweep[("nwchem", 12)].t_fock_max / sweep[("nwchem", 3888)].t_fock_max
        assert g_speedup > n_speedup
