"""The paper's shape claims, each stated once, over the artifact registry.

    pytest benchmarks/test_bench_paper.py [-s] [--benchmark-disable]

:data:`CLAIMS` has one ``(artifact, text, predicate)`` row per
qualitative claim of the paper's Sec IV that the reproduction must
show; ``predicate(data)`` reads the ``data`` of that artifact's report
(:data:`repro.bench.experiments.ARTIFACTS`).  One test per artifact
regenerates it once and grades all of its claims; the ``fock_table3``
BENCH family grades Table III's through :func:`check`.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import ARTIFACTS, run_cell
from repro.bench.harness import CORE_COUNTS, all_setups


def _lo(mol: dict) -> int:
    """The smallest core count of one molecule's sweep data."""
    return min(next(iter(mol.values())))


def _hi(mol: dict) -> int:
    return max(next(iter(mol.values())))


def _vdz_sim_shells(name: str, row: dict) -> bool:
    nc, nh = (int(n) for n in name.split()[0][1:].split("H"))
    return row["shells"] == 6 * nc + 3 * nh


def _alkanes() -> list[str]:
    return [s.name for s in all_setups() if s.is_alkane]


CLAIMS = [
    ("table2", "every molecule keeps unique shell quartets after screening",
     lambda d: all(row["unique_shell_quartets"] > 0 for row in d.values())),
    ("table2", "vdz-sim has cc-pVDZ's 6 shells per C and 3 per H",
     lambda d: all(_vdz_sim_shells(name, row) for name, row in d.items())),
    ("table3", "NWChem is faster at the smallest core count (better t_int)",
     lambda d: all(m["nwchem"][_lo(m)] < m["gtfock"][_lo(m)] for m in d.values())),
    ("table3", "GTFock is competitive at the largest: GTFock/NWChem < 1.4",
     lambda d: all(m["gtfock"][_hi(m)] / m["nwchem"][_hi(m)] < 1.4
                   for m in d.values())),
    ("table3", "both scale: max-core time below 1/50 of the min-core time",
     lambda d: all(t[_hi(m)] < t[_lo(m)] / 50
                   for m in d.values() for t in m.values())),
    ("table4", "GTFock's speedup at max cores beats NWChem's on every molecule",
     lambda d: all(m["gtfock"][_hi(m)] > m["nwchem"][_hi(m)] for m in d.values())),
    ("table4", "GTFock's speedup at max cores is over a quarter of ideal",
     lambda d: all(m["gtfock"][_hi(m)] > 0.25 * (_hi(m) / _lo(m))
                   for m in d.values())),
    ("table5", "both engines time every ERI, within 100x of each other",
     lambda d: all(v["MD"] > 0 and v["OS"] > 0 and 0.01 < v["MD"] / v["OS"] < 100
                   for v in d.values())),
    ("table6", "GTFock moves less data than NWChem at the smallest core count",
     lambda d: all(m["gtfock"][_lo(m)] < m["nwchem"][_lo(m)] for m in d.values())),
    ("table7", "GTFock makes fewer one-sided calls than NWChem in every cell",
     lambda d: all(m["gtfock"][c] < m["nwchem"][c]
                   for m in d.values() for c in m["gtfock"])),
    ("table8", "work stealing keeps l = Tmax/Tavg in [1, 1.5) in every cell",
     lambda d: all(1.0 <= l < 1.5 for m in d.values() for l in m["gtfock"].values())),
    ("table9", "purification's smallest share is under 20 % (paper: 1-15 %)",
     lambda d: min(row["percent"] for row in d.values()) < 20.0),
    ("table9", "purification never takes 60 % of the iteration",
     lambda d: all(row["percent"] < 60.0 for row in d.values())),
    ("table9", "purification's share grows with the core count",
     lambda d: d[max(d)]["percent"] >= d[min(d)]["percent"]),
    ("fig1", "a task block's D footprint is under 1/4 of per-task scaling",
     lambda d: d["ratio"] < 0.25 * d["naive_ratio"]),
    ("fig1", "a single task needs some of D",
     lambda d: d["single_task_elements"] > 0),
    ("fig2", "computation is comparable at max cores: 0.5 < NW/GT < 1.2",
     lambda d: all(0.5 < m["nwchem_t_comp"][_hi(m)] / m["gtfock_t_comp"][_hi(m)] < 1.2
                   for m in d.values())),
    ("fig2", "on the alkanes GTFock's overhead is over 3x below NWChem's",
     lambda d: all(d[a]["nwchem_t_ov"][_hi(d[a])] > 3.0 * d[a]["gtfock_t_ov"][_hi(d[a])]
                   for a in _alkanes())),
    ("model", "today's builds are compute-bound: L(p) < 1",
     lambda d: all(row["L(p)"] < 1.0 for row in d.values())),
    ("model", "parallel efficiency stays above 0.5",
     lambda d: all(row["efficiency"] > 0.5 for row in d.values())),
    ("model", "integrals must get over 5x faster before communication dominates",
     lambda d: all(row["integral_speedup_to_crossover"] > 5.0 for row in d.values())),
]


def check(artifact: str, data: dict) -> None:
    """Assert every claim about ``artifact``, naming the ones that fail."""
    failed = [text for art, text, holds in CLAIMS if art == artifact and not holds(data)]
    assert not failed, f"{artifact}: " + "; ".join(failed)


def test_every_artifact_has_a_claim():
    assert {art for art, _, _ in CLAIMS} == set(ARTIFACTS)


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_bench_artifact(artifact, benchmark, emit):
    report = benchmark.pedantic(ARTIFACTS[artifact], rounds=1, iterations=1)
    emit(report)
    check(artifact, report.data)


def test_commstats_summary_surfaces_balance(emit):
    """Table VIII's ``l`` is also what ``CommStats.summary()`` reports.

    ``FockSimResult.load_balance`` (from scheduler finish times) and the
    runtime accounting layer's own ``load_balance`` (max/mean virtual
    clock) must agree -- they are two views of the same clocks.
    """
    setup = all_setups()[0]
    lines = [f"CommStats load balance, {setup.name}:"]
    for cores in CORE_COUNTS[:3]:
        r = run_cell(setup, "gtfock", cores)
        summary = r.comm_summary
        assert "comm_fraction" in summary
        assert summary["load_balance"] == pytest.approx(r.load_balance)
        lines.append(
            f"  {cores:5d} cores: l={summary['load_balance']:.4f} "
            f"comm_fraction={summary['comm_fraction']:.4f}"
        )
    emit("\n".join(lines))
