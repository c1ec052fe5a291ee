"""The six hand-written sweep functions the artifact registry replaced.

Tables III, IV, VI, VII, VIII and Figure 2 were each one loop over the
benchmark molecules and core counts; they are now rows of
``repro.bench.experiments.ARTIFACTS`` rendered by one ``Sweep``.  These
copies are the differential oracle: a row's text must equal its
function's byte for byte and its values must equal that function's data.
Only their data shapes differ -- Table VIII's data here is
``data[molecule][cores]`` and Figure 2's ``data[molecule][alg][cores]``
holds ``{"t_comp", "t_ov"}``; the registry's is
``data[molecule][key][cores]`` throughout.
"""

from __future__ import annotations

from repro.bench.experiments import ExperimentReport, run_cell
from repro.bench.harness import CORE_COUNTS, MoleculeSetup, all_setups, format_table


def sweep(setup: MoleculeSetup, cores: tuple[int, ...] = CORE_COUNTS) -> dict:
    """Both algorithms over the core sweep for one molecule."""
    return {
        alg: {c: run_cell(setup, alg, c) for c in cores}
        for alg in ("gtfock", "nwchem")
    }


def table3_times(cores: tuple[int, ...] = CORE_COUNTS) -> ExperimentReport:
    data: dict = {}
    rows = []
    for setup in all_setups():
        res = sweep(setup, cores)
        data[setup.name] = {
            alg: {c: r.t_fock_max for c, r in res[alg].items()} for alg in res
        }
        for c in cores:
            rows.append(
                [
                    setup.name,
                    c,
                    res["gtfock"][c].t_fock_max,
                    res["nwchem"][c].t_fock_max,
                ]
            )
    text = format_table(
        ["Molecule", "Cores", "GTFock(s)", "NWChem(s)"],
        rows,
        title="Table III: Fock matrix construction time",
    )
    return ExperimentReport(data, text)


def table4_speedup(cores: tuple[int, ...] = CORE_COUNTS) -> ExperimentReport:
    base = cores[0]
    data: dict = {}
    rows = []
    for setup in all_setups():
        res = sweep(setup, cores)
        times = {
            alg: {c: r.t_fock_max for c, r in res[alg].items()} for alg in res
        }
        # the paper computes both speedups against the fastest base-core
        # time (NWChem's)
        t0 = min(times["gtfock"][base], times["nwchem"][base])
        sp = {
            alg: {c: t0 / t for c, t in times[alg].items()} for alg in times
        }
        data[setup.name] = sp
        for c in cores:
            rows.append([setup.name, c, sp["gtfock"][c], sp["nwchem"][c]])
    text = format_table(
        ["Molecule", "Cores", "GTFock", "NWChem"],
        rows,
        title=f"Table IV: speedup vs fastest {base}-core time",
        floatfmt="{:.1f}",
    )
    return ExperimentReport(data, text)


def table6_volume(cores: tuple[int, ...] = CORE_COUNTS) -> ExperimentReport:
    data: dict = {}
    rows = []
    for setup in all_setups():
        res = sweep(setup, cores)
        data[setup.name] = {
            alg: {c: r.comm_mb_per_proc for c, r in res[alg].items()} for alg in res
        }
        data[setup.name]["gtfock_steal_mb"] = {
            c: _steal_mb(res["gtfock"][c]) for c in cores
        }
        data[setup.name]["gtfock_idle_frac"] = {
            c: res["gtfock"][c].idle_fraction for c in cores
        }
        for c in cores:
            rows.append(
                [
                    setup.name,
                    c,
                    res["gtfock"][c].comm_mb_per_proc,
                    _steal_mb(res["gtfock"][c]),
                    res["nwchem"][c].comm_mb_per_proc,
                    f"{res['gtfock'][c].idle_fraction:.3f}",
                ]
            )
    text = format_table(
        ["Molecule", "Cores", "GTFock MB/proc", "  of it steal MB",
         "NWChem MB/proc", "GTFock idle frac"],
        rows,
        title="Table VI: average communication volume per process",
        floatfmt="{:.1f}",
    )
    return ExperimentReport(data, text)


def _steal_mb(r) -> float:
    """Average per-process MB on the steal channels (flight recorder)."""
    nbytes = sum(
        v
        for ch, v in r.comm_by_channel.items()
        if ch in ("steal_d", "steal_f")
    )
    return nbytes / 1e6 / max(r.nproc, 1)


def table7_calls(cores: tuple[int, ...] = CORE_COUNTS) -> ExperimentReport:
    data: dict = {}
    rows = []
    for setup in all_setups():
        res = sweep(setup, cores)
        data[setup.name] = {
            alg: {c: r.ga_calls_per_proc for c, r in res[alg].items()} for alg in res
        }
        for c in cores:
            rows.append(
                [
                    setup.name,
                    c,
                    res["gtfock"][c].ga_calls_per_proc,
                    res["nwchem"][c].ga_calls_per_proc,
                ]
            )
    text = format_table(
        ["Molecule", "Cores", "GTFock calls", "NWChem calls"],
        rows,
        title="Table VII: average one-sided calls per process",
        floatfmt="{:.0f}",
    )
    return ExperimentReport(data, text)


def table8_load_balance(cores: tuple[int, ...] = CORE_COUNTS) -> ExperimentReport:
    data: dict = {}
    rows = []
    for setup in all_setups():
        balances = {c: run_cell(setup, "gtfock", c).load_balance for c in cores}
        data[setup.name] = balances
        for c in cores:
            rows.append([setup.name, c, balances[c]])
    text = format_table(
        ["Molecule", "Cores", "l = Tmax/Tavg"],
        rows,
        title="Table VIII: GTFock load balance ratio (1.0 = perfect)",
    )
    return ExperimentReport(data, text)


def figure2_overhead(cores: tuple[int, ...] = CORE_COUNTS) -> ExperimentReport:
    data: dict = {}
    rows = []
    for setup in all_setups():
        res = sweep(setup, cores)
        data[setup.name] = {
            alg: {
                c: {"t_comp": r.t_comp_avg, "t_ov": r.t_overhead_avg}
                for c, r in res[alg].items()
            }
            for alg in res
        }
        for c in cores:
            g, n = res["gtfock"][c], res["nwchem"][c]
            ratio = n.t_overhead_avg / g.t_overhead_avg if g.t_overhead_avg > 0 else float("inf")
            rows.append(
                [setup.name, c, g.t_comp_avg, g.t_overhead_avg, n.t_comp_avg, n.t_overhead_avg, ratio]
            )
    text = format_table(
        ["Molecule", "Cores", "GT Tcomp", "GT Tov", "NW Tcomp", "NW Tov", "Tov NW/GT"],
        rows,
        title="Figure 2: average computation vs parallel overhead time",
    )
    return ExperimentReport(data, text)


#: registry name -> the function it replaced
REPLACED = {
    "table3": table3_times,
    "table4": table4_speedup,
    "table6": table6_volume,
    "table7": table7_calls,
    "table8": table8_load_balance,
    "fig2": figure2_overhead,
}
