"""The ``perfbench`` BENCH family's reader, on canned perfbench output.

:func:`benchmarks.test_bench_perfbench.read` turns an untraced and a
traced pass -- each its final JSON line and its ``--out`` document --
into one point; no perfbench run is needed to check it, and the point
must hold to the family's rows as any measured one does.
"""

from pathlib import Path

import pytest

from repro.obs.regress import gate

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("scf_direct", "scf_stored", "sim_sweep", "sim_traced")

#: the per-layer values of the canned traced pass the reader reads
LAYERS = {
    "sim_traced/obs.tracing_tax_ratio": 1.5,
    "sim_traced/obs.trace_export_mb": 40.0,
    "sim_traced/obs.trace_export_s": 0.5,
    "sim_traced/obs.critpath_analyze_s": 0.4,
    "sim_traced/obs.critpath_resim_s": 0.25,
    "sim_traced/obs.critpath_explained_ratio": 1.0,
    "sim_traced/obs.whatif_max_rel_err": 0.002,
    "sim_sweep/fock.nwchem_sim_s": 1.2,
}


def _stat(value):
    return {"value": value, "min": 0.9 * value, "max": 1.2 * value, "n": 3}


def _untraced(failed=0):
    doc = {"seed": 0, "smoke": False, "traced": False, "rounds": 3,
           "workloads": {}}
    metrics = {}
    for i, w in enumerate(WORKLOADS, 1):
        e2e = {"setup_s": _stat(0.5 * i), "time_to_solution_s": _stat(i),
               "peak_rss_mb": _stat(100.0 * i),
               "success_share": {"value": 1.0, "n": 9}}
        doc["workloads"][w] = {"attempted": 9, "failed": 0, "rounds": 3,
                               "end_to_end": e2e}
        # the final line's value is the median; min and max only in --out
        metrics.update({f"{w}/{name}": {"value": s["value"], "unit": "s"}
                        for name, s in e2e.items()})
    line = {"correct": failed == 0, "attempted": 36, "failed": failed,
            "metrics": metrics}
    return line, doc


def _traced(correct=True, failed=0, **layers):
    metrics = {k: {"value": v, "unit": ""}
               for k, v in {**LAYERS, **layers}.items()}
    line = {"correct": correct, "attempted": 108, "failed": failed,
            "metrics": metrics}
    return line, {"seed": 0, "smoke": False, "traced": True, "rounds": 1,
                  "workloads": {}}


@pytest.fixture
def read(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from benchmarks.test_bench_perfbench import read

    return read


def test_a_point_holds_the_passes_values(read):
    entry = read(_untraced(), _traced(), wall_s=312.44)
    gate(entry)
    assert entry["wall_s"] == 312.4 and entry["correct"] is True
    assert entry["scf_stored"]["time_to_solution_s"] == {
        "value": 2, "min": 1.8, "max": 2.4}
    assert entry["sim_sweep"]["success_share"] == {"value": 1.0}
    assert entry["export_mb_per_s"] == 80.0
    assert entry["analyze_noresim_s"] == pytest.approx(0.15)
    assert entry["critpath_analyze_s"] == 0.4
    assert entry["nwchem_sim_s"] == 1.2


@pytest.mark.parametrize("passes", [
    lambda: (_untraced(), _traced(correct=False)),
    lambda: (_untraced(failed=1), _traced()),
    # a line whose flag disagrees with its count is read by its count
    lambda: (_untraced(), _traced(correct=True, failed=2)),
], ids=["incorrect", "failed_untraced", "failed_traced"])
def test_a_failed_check_fails_the_gate(read, passes):
    entry = read(*passes(), wall_s=1.0)
    with pytest.raises(ValueError, match=r"perfbench\.correct"):
        gate(entry)
    with pytest.raises(ValueError, match=r"perfbench\.correct"):
        gate(entry, quick=True)


def test_a_tracing_tax_past_3_fails_only_the_full_gate(read):
    entry = read(_untraced(), _traced(**{
        "sim_traced/obs.tracing_tax_ratio": 3.2}), wall_s=1.0)
    with pytest.raises(ValueError, match=r"tracing_tax_ratio = 3\.2"):
        gate(entry)
    assert gate(entry, quick=True).passed  # machine-dependent row


@pytest.mark.parametrize("layer, value, row", [
    ("sim_traced/obs.critpath_explained_ratio", 0.9,
     "critpath_explained_ratio"),
    ("sim_traced/obs.whatif_max_rel_err", 0.2, "whatif_max_rel_err"),
])
def test_critpath_rows_fail_the_quick_gate(read, layer, value, row):
    entry = read(_untraced(), _traced(**{layer: value}), wall_s=1.0)
    with pytest.raises(ValueError, match=rf"perfbench\.{row}"):
        gate(entry, quick=True)
