"""The traced pass: which callables are wrapped, and the per-layer metrics.

Layer names are the ``src/repro`` package names.  Time metrics cover the
timed body unless their name says set-up (``chem.basis_build_s``,
``integrals.store_fill_s``, ``fock.sim_setup_s``); a metric that does not
apply to a workload reads 0, which is also the prediction for it.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager

from perfbench.spans import SpanRecorder, patched

#: root spans opened by the child around the three phases
SETUP, BODY, VERIFY = "setup", "body", "verify"


@contextmanager
def instrument(rec: SpanRecorder):
    """Wrap the layer boundaries for the duration of the block."""
    from repro.bench import harness
    from repro.chem.basis.basisset import BasisSet
    from repro.fock import simulate
    from repro.integrals import class_batch
    from repro.integrals.engine import ERIEngine
    from repro.integrals.store import ERIStore
    from repro.obs import critpath
    from repro.obs.trace import Tracer
    from repro.runtime.event import EventQueue
    from repro.runtime.network import CommStats
    from repro.runtime.sdc import IntegrityMonitor
    from repro.scf import fock, hf
    from repro.scf.diis import DIIS
    from repro.scf.guard import SCFGuard

    timed = [
        (BasisSet, "build", "chem.basis_build"),
        (hf, "overlap", "integrals.oneelec"),
        (hf, "core_hamiltonian", "integrals.oneelec"),
        (ERIEngine, "schwarz", "integrals.schwarz"),
        (ERIEngine, "class_plan", "integrals.class_plan"),
        (class_batch, "compute_class_rows", "integrals.eri_kernel"),
        (fock, "jk_from_plan", "integrals.jk_from_plan"),
        (fock, "build_jk", "scf.build_jk"),
        (ERIStore, "record_batch", "integrals.store_record"),
        (ERIStore, "finalize", "integrals.store_finalize"),
        (ERIStore, "offsets_for", "integrals.store_read"),
        (ERIStore, "read_stacked", "integrals.store_read"),
        (ERIStore, "verify_stacked", "integrals.store_read"),
        (hf.RHF, "run", "scf.run"),
        (hf, "fock_matrix", "scf.fock_build"),
        (hf, "density_from_fock", "scf.density_step"),
        (hf, "save_checkpoint", "scf.checkpoint"),
        (DIIS, "error_vector", "scf.diis"),
        (DIIS, "push", "scf.diis"),
        (DIIS, "extrapolate", "scf.diis"),
        (IntegrityMonitor, "check_fock", "scf.integrity"),
        (IntegrityMonitor, "check_density", "scf.integrity"),
        (SCFGuard, "check_matrix", "scf.guard"),
        (SCFGuard, "observe", "scf.guard"),
        (SCFGuard, "damp", "scf.guard"),
        (harness, "molecule_setup", "fock.sim_setup"),
        (simulate, "simulate_gtfock", "fock.simulate_gtfock"),
        (simulate, "simulate_nwchem", "fock.simulate_nwchem"),
        (simulate, "run_work_stealing", "fock.stealing_loop"),
        (simulate, "run_centralized", "fock.centralized_loop"),
        (simulate, "block_footprint", "fock.prefetch_footprint"),
        (simulate, "build_nwchem_task_arrays", "fock.nwchem_task_arrays"),
        (critpath, "analyze", "obs.critpath_analyze"),
        (critpath, "decompose", "obs.critpath_decompose"),
        (critpath, "project_whatifs", "obs.critpath_whatifs"),
        (Tracer, "write_chrome", "obs.trace_export"),
    ]
    # called > 1e5 times per body: a count, never a span
    counted = [
        (CommStats, "charge_comm", "runtime.charge_comm"),
        (EventQueue, "pop", "runtime.event_pop"),
    ]
    targets = [
        (owner, attr, lambda fn, n=name: rec.wrap(n, fn))
        for owner, attr, name in timed
    ] + [
        (owner, attr, lambda fn, n=name: rec.wrap_count(n, fn))
        for owner, attr, name in counted
    ]
    with patched(targets):
        yield


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def wrapper_costs(calls: int = 20_000) -> tuple[float, float]:
    """Seconds one span wrapper and one count wrapper add to a call."""
    import time

    def noop():
        pass

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    scratch = SpanRecorder()
    bare = loop(noop)
    span = loop(scratch.wrap("x", noop))
    count = loop(scratch.wrap_count("x", noop))
    return max(span - bare, 0.0) / calls, max(count - bare, 0.0) / calls


def layer_metrics(rec: SpanRecorder, facts: dict, body_s: float) -> dict:
    """Per-layer metric values from one traced child's spans and facts."""
    def body(*names: str) -> float:
        return rec.total(*names, under=BODY)

    def sim(*names: str) -> float:
        # the analyzer re-runs the simulator for its what-ifs: that time
        # is obs', not fock's
        return rec.total(*names, under=BODY, not_under="obs.critpath_analyze")

    m: dict[str, float] = {}

    m["chem.basis_build_s"] = rec.total("chem.basis_build")
    m["integrals.oneelec_s"] = body("integrals.oneelec")
    m["integrals.schwarz_s"] = body("integrals.schwarz")
    m["integrals.class_plan_s"] = rec.total_self(
        "integrals.class_plan", under=BODY)
    m["integrals.eri_kernel_s"] = body("integrals.eri_kernel")
    computed = facts.get("quartets_computed", 0)
    served = facts.get("quartets_served_from_store", 0)
    m["integrals.quartets_computed"] = computed
    m["integrals.kernel_quartets_per_s"] = _ratio(
        computed, m["integrals.eri_kernel_s"])
    m["integrals.jk_contract_s"] = rec.total_self(
        "integrals.jk_from_plan", under=BODY)
    m["integrals.store_fill_s"] = rec.total("scf.build_jk", under=SETUP)
    m["integrals.store_blocks"] = facts.get("store_blocks", 0)
    m["integrals.store_bytes"] = facts.get("store_bytes", 0)
    m["integrals.store_read_s"] = body("integrals.store_read")
    m["integrals.quartets_served_from_store"] = served
    m["integrals.store_crc_checks"] = facts.get("store_crc_checks", 0)
    builds = len(rec.select("scf.fock_build", under=BODY))
    # computed, not measured: every warm build reads every block once
    read_mb = facts.get("store_bytes", 0) * builds / 1e6 if served else 0.0
    m["integrals.store_read_mb_per_s"] = _ratio(
        read_mb, m["integrals.store_read_s"])
    m["integrals.store_hit_share"] = _ratio(served, served + computed)

    fock_builds = rec.durations("scf.fock_build", under=BODY)
    m["scf.iterations"] = facts.get("iterations", 0)
    m["scf.first_fock_s"] = fock_builds[0] if fock_builds else 0.0
    m["scf.fock_build_p50_s"] = (
        statistics.median(fock_builds) if fock_builds else 0.0)
    m["scf.density_step_s"] = body("scf.density_step")
    m["scf.diis_s"] = body("scf.diis")
    m["scf.driver_self_s"] = rec.total_self("scf.run", under=BODY)
    m["scf.checkpoint_s"] = body("scf.checkpoint")
    m["scf.checkpoint_bytes"] = facts.get("checkpoint_bytes", 0)
    m["scf.integrity_s"] = body("scf.integrity")
    m["scf.integrity_checks"] = facts.get("integrity_checks", 0)
    m["scf.guard_s"] = body("scf.guard")
    m["scf.hook_share"] = _ratio(
        m["scf.checkpoint_s"] + m["scf.integrity_s"] + m["scf.guard_s"],
        body_s)
    m["scf.energy_abs_err"] = facts.get("energy_abs_err", 0.0)

    cells = facts.get("cells", {})
    m["fock.sim_setup_s"] = rec.total("fock.sim_setup", under=SETUP)
    m["fock.gtfock_sim_s"] = sim("fock.simulate_gtfock")
    m["fock.nwchem_sim_s"] = sim("fock.simulate_nwchem")
    m["fock.stealing_loop_s"] = sim("fock.stealing_loop")
    m["fock.centralized_loop_s"] = sim("fock.centralized_loop")
    m["fock.prefetch_footprint_s"] = sim("fock.prefetch_footprint")
    m["fock.nwchem_task_arrays_s"] = sim("fock.nwchem_task_arrays")
    m["fock.simulate_self_s"] = rec.total_self(
        "fock.simulate_gtfock", "fock.simulate_nwchem",
        under=BODY, not_under="obs.critpath_analyze")
    sim_s = m["fock.gtfock_sim_s"] + m["fock.nwchem_sim_s"]
    m["fock.sim_cells"] = len(cells)
    m["fock.sim_ranks"] = sum(c["nproc"] for c in cells.values())
    m["fock.sim_tasks"] = sum(c["ntasks"] for c in cells.values())
    m["fock.steals_total"] = sum(
        round(c["steals_avg"] * c["nproc"]) for c in cells.values())
    m["fock.sim_tasks_per_s"] = _ratio(m["fock.sim_tasks"], sim_s)
    m["fock.wall_per_rank_ms"] = _ratio(1e3 * sim_s, m["fock.sim_ranks"])
    gt54 = cells.get("gtfock:C54H18:3888")
    gt24, nw24 = cells.get("gtfock:C24H12:3888"), cells.get("nwchem:C24H12:3888")
    m["fock.tfock_3888_c54h18_s"] = gt54["t_fock_max"] if gt54 else 0.0
    m["fock.speedup_vs_nwchem_3888_c24h12"] = (
        nw24["t_fock_max"] / gt24["t_fock_max"] if gt24 and nw24 else 0.0)
    m["fock.load_balance_max"] = max(
        (c["load_balance"] for c in cells.values()), default=0.0)

    # the centralized loop pops its own heap once per counter access
    events = rec.counts.get("runtime.event_pop", 0) + sum(
        c["counter_accesses"] for c in cells.values())
    m["runtime.charge_comm_calls"] = rec.counts.get("runtime.charge_comm", 0)
    m["runtime.events_popped"] = events
    m["runtime.sim_comm_bytes"] = sum(c["comm_bytes"] for c in cells.values())
    m["runtime.events_per_s"] = _ratio(
        events, rec.total("fock.simulate_gtfock", "fock.simulate_nwchem",
                          under=BODY))

    traced = facts.get("trace_events", 0) > 0
    m["obs.traced_sim_s"] = m["fock.gtfock_sim_s"] if traced else 0.0
    m["obs.trace_events"] = facts.get("trace_events", 0)
    m["obs.tracing_tax_ratio"] = _ratio(
        m["obs.traced_sim_s"],
        rec.total("fock.simulate_gtfock", under=VERIFY))
    m["obs.critpath_analyze_s"] = body("obs.critpath_analyze")
    m["obs.critpath_resim_s"] = rec.total(
        "fock.simulate_gtfock", under="obs.critpath_analyze")
    m["obs.trace_export_s"] = body("obs.trace_export")
    m["obs.trace_export_mb"] = facts.get("trace_export_bytes", 0) / 1e6
    m["obs.critpath_explained_ratio"] = facts.get("explained_ratio", 0.0)
    m["obs.whatif_max_rel_err"] = facts.get("whatif_max_rel_err", 0.0)

    self_t = rec.self_times()
    root = rec.select(BODY)
    m["bench.unattributed_share"] = _ratio(
        sum(self_t[i] for i in root), body_s)
    # the measured overhead ratio drowns in host noise; this is the share
    # of the body the wrappers themselves can account for
    span_cost, count_cost = wrapper_costs()
    in_body = sum(rec.under(BODY))
    m["bench.wrapper_cost_share"] = _ratio(
        in_body * span_cost + sum(rec.counts.values()) * count_cost, body_s)
    return m
