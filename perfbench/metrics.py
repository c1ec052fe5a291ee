"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is this file rendered by
:func:`benchmark_json`; a self-test keeps the two in step.  ``exact``
marks counts and simulated answers that repeat exactly for a given seed:
``--compare`` requires them to be identical, and a change may claim them
only as counts, never as speed-ups.
"""

from __future__ import annotations

#: nominal measuring time of one run: three rounds of ten-second slots
RUN_SECONDS = 30

WORKLOADS = {
    "scf_direct": (
        "(H2O)5 RHF/STO-3G direct SCF on the class-batched path, no cache or "
        "store: the ERI kernel sweep is ~80% of the body, so kernel and plan "
        "work must show here; 3 rounds; benzene overran the 3420 s cap"
    ),
    "scf_stored": (
        "(H2O)4 chain RHF/6-31G conventional SCF: set-up fills an ERIStore, the "
        "body is a warm RHF with checkpoint+integrity+guard, zero "
        "recompute: it bypasses the kernel; store, J/K, hooks show here"
    ),
    "sim_sweep": (
        "untraced simulator, no integral work: simulate_gtfock on 4 scaled "
        "paper molecules x 12/192/768/3888 cores + simulate_nwchem on C24H12 "
        "at 12/3888 (other NWChem cells dropped for the time cap); obs flat"
    ),
    "sim_traced": (
        "same simulator with its observability on: Tracer+SimCapture, "
        "critpath.analyze(resim), write_chrome on C54H18 at 3888 cores "
        "(C30H62 dropped for the time cap); obs changes show here only"
    ),
}

END_TO_END = {
    "setup_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "why": "child start to inputs ready: interpreter, imports, "
               "molecule/basis and the per-workload preparation; wall scaled "
               "by the interleaved host-speed probes; median of the rounds",
    },
    "time_to_solution_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "why": "wall of the timed body, to a converged verified energy or "
               "the full verified set of simulated cells, scaled by the "
               "interleaved host-speed probes; median of the rounds",
    },
    "peak_rss_mb": {
        "unit": "MiB", "better": "lower", "bound": 0.10,
        "why": "max over the round children of ru_maxrss",
    },
    "success_share": {
        "unit": "ratio", "better": "higher", "bound": 0.001,
        "why": "output checks passed / attempted over all rounds; a crashed "
               "round fails every one of its checks",
    },
}


def _layer(unit: str, better: str, why: str, exact: bool = False) -> dict:
    return {"unit": unit, "better": better, "why": why, "exact": exact}


PER_LAYER = {
    "chem.basis_build_s": _layer(
        "s", "lower", "BasisSet.build, set-up included -> setup_s everywhere"),
    "integrals.oneelec_s": _layer(
        "s", "lower", "overlap + core Hamiltonian in the SCF body"),
    "integrals.schwarz_s": _layer(
        "s", "lower", "Schwarz matrix, paid in the first Fock build"),
    "integrals.class_plan_s": _layer(
        "s", "lower", "class-plan construction (self time), first build"),
    "integrals.eri_kernel_s": _layer(
        "s", "lower", "total inside compute_class_rows in the body -> "
        "time_to_solution_s on scf_direct; 0 on scf_stored"),
    "integrals.quartets_computed": _layer(
        "count", "lower", "quartets the body's engine computed", exact=True),
    "integrals.kernel_quartets_per_s": _layer(
        "1/s", "higher", "quartets_computed / eri_kernel_s"),
    "integrals.jk_contract_s": _layer(
        "s", "lower", "jk_from_plan self time: chunk resolution + J/K "
        "scatter -> largest share of scf_stored"),
    "integrals.store_fill_s": _layer(
        "s", "lower", "the set-up build_jk that fills and finalizes the "
        "store -> setup_s on scf_stored"),
    "integrals.store_blocks": _layer(
        "count", "lower", "blocks in the finalized store", exact=True),
    "integrals.store_bytes": _layer(
        "bytes", "lower", "bytes of blocks.bin", exact=True),
    "integrals.store_read_s": _layer(
        "s", "lower", "offsets_for + read_stacked + verify_stacked in the "
        "body"),
    "integrals.quartets_served_from_store": _layer(
        "count", "higher", "quartets read back instead of computed",
        exact=True),
    "integrals.store_crc_checks": _layer(
        "count", "lower", "CRC scrubs on first read", exact=True),
    "integrals.store_read_mb_per_s": _layer(
        "MB/s", "higher", "computed bytes (store_bytes x builds) / "
        "store_read_s"),
    "integrals.store_hit_share": _layer(
        "ratio", "higher", "served / (served + computed): 1 on scf_stored, "
        "0 on scf_direct"),
    "scf.iterations": _layer(
        "count", "lower", "SCF iterations to convergence", exact=True),
    "scf.first_fock_s": _layer(
        "s", "lower", "first Fock build; minus fock_build_p50_s it is the "
        "cold-start cost a plan/pair-cache change moves"),
    "scf.fock_build_p50_s": _layer("s", "lower", "median Fock build"),
    "scf.density_step_s": _layer("s", "lower", "density_from_fock total"),
    "scf.diis_s": _layer("s", "lower", "DIIS error, push, extrapolate"),
    "scf.driver_self_s": _layer(
        "s", "lower", "RHF.run minus every wrapped child"),
    "scf.checkpoint_s": _layer(
        "s", "lower", "save_checkpoint total (scf_stored only)"),
    "scf.checkpoint_bytes": _layer(
        "bytes", "lower", "bytes of checkpoint files written"),
    "scf.integrity_s": _layer(
        "s", "lower", "IntegrityMonitor.check_fock + check_density"),
    "scf.integrity_checks": _layer(
        "count", "lower", "integrity checks run, CRC scrubs included",
        exact=True),
    "scf.guard_s": _layer(
        "s", "lower", "SCFGuard.check_matrix + observe + damp"),
    "scf.hook_share": _layer(
        "ratio", "lower", "(checkpoint + integrity + guard) / body"),
    "scf.energy_abs_err": _layer(
        "Eh", "lower", "|E - E_ref| against goldens.json"),
    "fock.sim_setup_s": _layer(
        "s", "lower", "molecule_setup calls -> setup_s on sim_*"),
    "fock.gtfock_sim_s": _layer(
        "s", "lower", "simulate_gtfock calls made by the body"),
    "fock.nwchem_sim_s": _layer(
        "s", "lower", "simulate_nwchem calls made by the body"),
    "fock.stealing_loop_s": _layer("s", "lower", "run_work_stealing"),
    "fock.centralized_loop_s": _layer("s", "lower", "run_centralized"),
    "fock.prefetch_footprint_s": _layer("s", "lower", "block_footprint"),
    "fock.nwchem_task_arrays_s": _layer(
        "s", "lower", "build_nwchem_task_arrays"),
    "fock.simulate_self_s": _layer(
        "s", "lower", "simulate_* minus the loops above: partition, queues, "
        "flush, result assembly"),
    "fock.sim_cells": _layer("count", "higher", "cells simulated", exact=True),
    "fock.sim_ranks": _layer(
        "count", "higher", "sum of simulated processes", exact=True),
    "fock.sim_tasks": _layer(
        "count", "higher", "sum of simulated tasks", exact=True),
    "fock.steals_total": _layer(
        "count", "lower", "distinct (thief, victim) pairs over all cells",
        exact=True),
    "fock.sim_tasks_per_s": _layer(
        "1/s", "higher", "sim_tasks / simulate wall"),
    "fock.wall_per_rank_ms": _layer(
        "ms", "lower", "simulate wall / sim_ranks"),
    "fock.tfock_3888_c54h18_s": _layer(
        "s", "lower", "simulated answer (virtual seconds): no PR may move it",
        exact=True),
    "fock.speedup_vs_nwchem_3888_c24h12": _layer(
        "ratio", "higher", "simulated answer: NWChem / GTFock t_fock_max",
        exact=True),
    "fock.load_balance_max": _layer(
        "ratio", "lower", "simulated answer: worst load balance of a cell",
        exact=True),
    "runtime.charge_comm_calls": _layer(
        "count", "lower", "CommStats.charge_comm invocations", exact=True),
    "runtime.events_popped": _layer(
        "count", "lower", "EventQueue.pop calls + centralized counter "
        "accesses", exact=True),
    "runtime.sim_comm_bytes": _layer(
        "bytes", "lower", "simulated bytes over all channels and cells",
        exact=True),
    "runtime.events_per_s": _layer(
        "1/s", "higher", "events_popped / simulate wall"),
    "obs.traced_sim_s": _layer(
        "s", "lower", "simulate_gtfock with Tracer + SimCapture"),
    "obs.trace_events": _layer(
        "count", "lower", "events the Tracer recorded", exact=True),
    "obs.tracing_tax_ratio": _layer(
        "ratio", "lower", "traced / untraced wall of the same cell"),
    "obs.critpath_analyze_s": _layer(
        "s", "lower", "critpath.analyze, re-simulation included"),
    "obs.critpath_resim_s": _layer(
        "s", "lower", "simulate_gtfock re-runs inside analyze"),
    "obs.trace_export_s": _layer("s", "lower", "Tracer.write_chrome"),
    "obs.trace_export_mb": _layer("MB", "lower", "size of the exported JSON"),
    "obs.critpath_explained_ratio": _layer(
        "ratio", "higher", "critical path / makespan"),
    "obs.whatif_max_rel_err": _layer(
        "ratio", "lower", "worst projection vs re-simulation error"),
    "bench.trace_overhead_ratio": _layer(
        "ratio", "lower", "traced body / untraced reference body of the "
        "same command"),
    "bench.wrapper_cost_share": _layer(
        "ratio", "lower", "computed: spans and counts in the body x the "
        "calibrated cost of one wrapper, over the body"),
    "bench.unattributed_share": _layer(
        "ratio", "lower", "body time inside no wrapped callable"),
    "host.probe_s": _layer(
        "s", "lower", "median of the fixed probes interleaved with the "
        "work: the host's speed, not the program's"),
    "host.cpu_share": _layer(
        "ratio", "higher", "child CPU / wall over the body, ~1 when "
        "nothing preempts it"),
}


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": s["unit"], "better": s["better"],
             "bound": s["bound"]}
            for n, s in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": s["unit"], "better": s["better"]}
            for n, s in PER_LAYER.items()
        ],
    }
