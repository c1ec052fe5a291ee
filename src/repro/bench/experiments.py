"""Per-table/figure experiment drivers (the reproduction's evaluation).

Each function regenerates one artifact of the paper's Section IV and
returns both structured data and a formatted text report.  The
``benchmarks/`` suite wraps these in pytest-benchmark targets; the
``examples/`` scripts call them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.harness import (
    CORE_COUNTS,
    MoleculeSetup,
    all_setups,
    format_table,
)
from repro.bench.paper_data import FIGURE1, MEASURED_CONSTANTS, TABLE2_MOLECULES
from repro.fock.partition import TaskBlock
from repro.fock.prefetch import block_footprint
from repro.fock.simulate import FockSimResult, simulate_gtfock, simulate_nwchem
from repro.integrals.schwarz import unique_significant_quartet_count
from repro.model.perfmodel import PerfModel


@dataclass
class ExperimentReport:
    """Structured result + rendered text for one table/figure."""

    experiment: str
    data: dict
    text: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


# -- simulation cache: every (setup, algorithm, cores) cell is run once ------

_SIM_CACHE: dict[tuple[str, str, int], FockSimResult] = {}


def run_cell(setup: MoleculeSetup, algorithm: str, cores: int) -> FockSimResult:
    key = (setup.name, algorithm, cores)
    if key not in _SIM_CACHE:
        fn = simulate_gtfock if algorithm == "gtfock" else simulate_nwchem
        _SIM_CACHE[key] = fn(
            setup.basis,
            setup.screen,
            cores,
            config=setup.config,
            costs=setup.costs,
            molecule_name=setup.name,
        )
    return _SIM_CACHE[key]


def sweep(setup: MoleculeSetup, cores: tuple[int, ...] = CORE_COUNTS) -> dict:
    """Both algorithms over the core sweep for one molecule."""
    return {
        alg: {c: run_cell(setup, alg, c) for c in cores}
        for alg in ("gtfock", "nwchem")
    }


# ---------------------------------------------------------------------------
# Table II -- test molecules
# ---------------------------------------------------------------------------


def table2_molecules() -> ExperimentReport:
    rows = []
    data = {}
    for setup in all_setups():
        b = setup.basis
        uq = unique_significant_quartet_count(setup.screen.sigma, setup.screen.tau)
        rows.append(
            [setup.name, b.molecule.natoms, b.nshells, b.nbf, uq]
        )
        data[setup.name] = {
            "atoms": b.molecule.natoms,
            "shells": b.nshells,
            "functions": b.nbf,
            "unique_shell_quartets": uq,
        }
    text = format_table(
        ["Molecule", "Atoms", "Shells", "Functions", "UniqueShellQuartets"],
        rows,
        title="Table II: test molecules (vdz-sim, tau=1e-10)"
        + f"\npaper (cc-pVDZ): {TABLE2_MOLECULES}",
    )
    return ExperimentReport("table2", data, text)


# ---------------------------------------------------------------------------
# Tables III & IV -- Fock construction times and speedups
# ---------------------------------------------------------------------------


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
    return ExperimentReport("table3", data, text)


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
    return ExperimentReport("table4", data, text)


# ---------------------------------------------------------------------------
# Table V -- measured per-ERI times of the two real engines
# ---------------------------------------------------------------------------


def table5_t_int(nquartets: int = 4000) -> ExperimentReport:
    """Measure microseconds/ERI of the MD and OS engines on real molecules.

    The paper compares the ERD package (GTFock) against NWChem's
    integrals on C24H12 and C10H22; we compare our two kernels on the
    same molecules (STO-3G): both engines' ``compute_rows`` over one
    seeded sample of ``nquartets`` screened canonical rows (tau = 1e-11,
    the rows of ``engine.class_plan``), planned as one class plan so
    both kernels batch them by class as a build does.  Best of two
    passes, so operands stacked by a first pass are not charged per ERI.
    """
    import time

    from repro.chem.basis.basisset import BasisSet
    from repro.chem.builders import alkane, graphene_flake
    from repro.integrals.class_batch import build_class_plan, canonical_quartet_array
    from repro.integrals.engine import MDEngine, OSEngine

    data: dict = {}
    rows = []
    rng = np.random.default_rng(3)
    for name, mol in (("C24H12", graphene_flake(2)), ("C10H22", alkane(10))):
        basis = BasisSet.build(mol, "sto-3g")
        md = MDEngine(basis)
        screened = canonical_quartet_array(md.schwarz(), 1e-11)
        pick = rng.choice(len(screened), min(nquartets, len(screened)), replace=False)
        chunks = build_class_plan(basis, md.pair_cache, screened[np.sort(pick)]).chunks()
        del screened  # ~100 MB on C24H12: not held while timing
        per_engine = {}
        for label, engine in (("MD", md), ("OS", OSEngine(basis))):
            times = []
            for _ in range(2):
                t0 = time.perf_counter()
                n_eri = sum(
                    blocks.size for chunk in chunks
                    for blocks in engine.compute_rows(chunk)
                )
                times.append(time.perf_counter() - t0)
            per_engine[label] = min(times) / n_eri * 1e6  # us per ERI
        data[name] = per_engine
        rows.append([name, per_engine["MD"], per_engine["OS"]])
    text = format_table(
        ["Molecule", "MD us/ERI", "OS us/ERI"],
        rows,
        title="Table V: average time per ERI (our engines; paper: ERD 4.76us)",
    )
    return ExperimentReport("table5", data, text)


# ---------------------------------------------------------------------------
# Tables VI & VII -- communication volume and GA calls
# ---------------------------------------------------------------------------


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
    return ExperimentReport("table6", data, text)


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
    return ExperimentReport("table7", data, text)


# ---------------------------------------------------------------------------
# Table VIII -- load balance
# ---------------------------------------------------------------------------


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
    return ExperimentReport("table8", data, text)


# ---------------------------------------------------------------------------
# Table IX -- purification share of the HF iteration
# ---------------------------------------------------------------------------


def table9_purification(cores: tuple[int, ...] = CORE_COUNTS) -> ExperimentReport:
    """T_fock vs T_purification for the C150H30-class molecule.

    Extended with the dense-diagonalization alternative the paper
    replaces, via :mod:`repro.dist.hf_iteration`.
    """
    from repro.dist.hf_iteration import hf_iteration_breakdown

    setup = next(s for s in all_setups() if "150" in s.name or "54" in s.name)
    iters = MEASURED_CONSTANTS["purification_iterations_C150H30"]
    data: dict = {}
    rows = []
    for c in cores:
        r = run_cell(setup, "gtfock", c)
        b = hf_iteration_breakdown(
            r, setup.basis.nbf, setup.config, purification_iterations=iters
        )
        data[c] = {
            "t_fock": b.t_fock,
            "t_purf": b.t_purification,
            "t_diag": b.t_diagonalization,
            "percent": b.purification_percent,
        }
        rows.append(
            [c, b.t_fock, b.t_purification, b.purification_percent,
             b.t_diagonalization]
        )
    text = format_table(
        ["Cores", "T_fock(s)", "T_purf(s)", "%", "T_diag(s)"],
        rows,
        title=f"Table IX: purification share, {setup.name} ({iters} iterations)",
    )
    return ExperimentReport("table9", data, text)


# ---------------------------------------------------------------------------
# Figure 1 -- task vs task-block D footprints
# ---------------------------------------------------------------------------


def figure1_footprint() -> ExperimentReport:
    """Footprint of one task vs a block of tasks (reordered alkane).

    The paper: task (300,:|600,:) of C100H202 needs 1055 elements of D;
    the 2500-task block (300:350,:|600:650,:) needs only ~80x more.
    We evaluate the same construction at matching relative positions.
    """
    setup = next(s for s in all_setups() if "100" in s.name or "20H42" in s.name)
    ns = setup.basis.nshells
    m = int(ns * 300 / 1206)
    n = int(ns * 600 / 1206)
    width = max(2, int(ns * 50 / 1206))
    single = block_footprint(setup.screen, TaskBlock(m, m + 1, n, n + 1))
    block = block_footprint(
        setup.screen,
        TaskBlock(m, min(m + width, ns), n, min(n + width, ns)),
    )
    ntasks = width * width
    ratio = block.elements / max(single.elements, 1)
    data = {
        "single_task_elements": single.elements,
        "block_elements": block.elements,
        "block_tasks": ntasks,
        "ratio": ratio,
        "naive_ratio": ntasks,
        "paper": FIGURE1,
    }
    text = (
        "Figure 1: D footprint, single task vs task block "
        f"({setup.name}, reordered)\n"
        f"  single task ({m},:|{n},:)              : {single.elements} elements\n"
        f"  {width}x{width} block = {ntasks} tasks : {block.elements} elements\n"
        f"  ratio {ratio:.1f}x  (naive per-task scaling would be {ntasks}x; "
        f"paper reports ~{FIGURE1['block_over_single_ratio']:.0f}x for 2500 tasks)"
    )
    return ExperimentReport("figure1", data, text)


# ---------------------------------------------------------------------------
# Figure 2 -- computation vs parallel overhead
# ---------------------------------------------------------------------------


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
    return ExperimentReport("figure2", data, text)


# ---------------------------------------------------------------------------
# Sec III-G -- performance-model analysis (Eq 11/12, isoefficiency, 50x)
# ---------------------------------------------------------------------------


def model_analysis(p_eval: int = 3888) -> ExperimentReport:
    data: dict = {}
    rows = []
    for setup in all_setups():
        s_meas = run_cell(setup, "gtfock", p_eval).steals_avg
        model = PerfModel.from_screening(setup.screen, setup.config, s=s_meas)
        nproc = max(1, p_eval // setup.config.cores_per_node)
        l_p = model.overhead_ratio(nproc)
        speedup = model.integral_speedup_to_crossover(nproc)
        data[setup.name] = {
            "s_measured": s_meas,
            "L(p)": l_p,
            "efficiency": model.efficiency(nproc),
            "L(n^2)": model.max_parallelism_ratio(),
            "integral_speedup_to_crossover": speedup,
        }
        rows.append([setup.name, s_meas, l_p, model.efficiency(nproc), speedup])
    text = format_table(
        ["Molecule", "s", "L(p)", "E(p)", "crossover speedup"],
        rows,
        title=(
            f"Sec III-G model at {p_eval} cores "
            "(paper: C96H24 needs ~50x faster integrals before comm dominates)"
        ),
    )
    return ExperimentReport("model", data, text)
