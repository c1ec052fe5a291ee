"""Table V: measured time per ERI -- ours beside the paper's ``t_int``.

Two measurements:

* the paper's own comparison, transposed: our two real engines (MD
  and OS), each kernel over the same seeded sample of 4 000 screened
  canonical rows of C24H12 and C10H22
  (:func:`repro.bench.experiments.table5_t_int`);
* the honest one ROADMAP asks for: the *production* kernel -- the
  class-batched sweep every direct build, store fill and Schwarz pass
  runs -- in microseconds per shell quartet and per ERI on the two
  perfbench SCF systems, beside the paper's 4.76 us/ERI (ERD on
  Lonestar), before and after the family sweep (one Boys / Hermite
  pass per exponent-family quartet, shared by the sp shells).

"Before" is the parent commit measured on the same host by the same
function (``kernel_t_int`` drives only ``MDEngine.class_plan`` and
``compute_class_rows``: run that commit's copy of this script with
``PYTHONPATH=<parent>/src`` -- ``compute_class_rows`` took one class's
rows there and takes a family chunk here); the recorded values below
are best-of-4 process times, single thread.  Not like for
like: the paper's 4.76 us is compiled ERD on cc-pVDZ (d shells, deeper
contractions); ours is NumPy on s/p-only STO-3G and 6-31G, where most
ERIs sit in cheap low-L classes -- the per-shell-quartet column is the
one to read against a compiled kernel.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.bench.experiments import table5_t_int
from repro.bench.harness import format_table
from repro.bench.paper_data import TABLE5_T_INT
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water_cluster
from repro.integrals.class_batch import compute_class_rows
from repro.integrals.engine import MDEngine

PAPER_T_INT_US = TABLE5_T_INT["gtfock_C24H12"] * 1e6

#: (label, molecule builder args, basis): the perfbench SCF systems
SYSTEMS = (
    ("(H2O)5/STO-3G", (5, 1, 1), "sto-3g"),
    ("(H2O)4/6-31G", (4, 1, 1), "6-31g"),
)

#: parent commit 482bd1e (per-class sweeps) on the reference host:
#: (us / shell quartet, us / ERI)
BEFORE = {
    "(H2O)5/STO-3G": (5.21, 1.27),
    "(H2O)4/6-31G": (1.42, 0.31),
}


def kernel_t_int(cluster: tuple, basis_name: str, repeats: int = 4) -> dict:
    """Production-kernel cost of one full screened sweep (tau = 1e-11)."""
    basis = BasisSet.build(water_cluster(*cluster), basis_name)
    engine = MDEngine(basis)
    chunks = engine.class_plan(1e-11).chunks()
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        n_eri = sum(
            blocks.size for chunk in chunks
            for blocks in compute_class_rows(chunk)
        )
        times.append(time.process_time() - t0)
    quartets = sum(rows.size for chunk in chunks for _, rows in chunk)
    best = min(times)
    return {
        "quartets": quartets,
        "eris": n_eri,
        "sweep_s": best,
        "us_per_quartet": 1e6 * best / quartets,
        "us_per_eri": 1e6 * best / n_eri,
    }


def render_kernel_table(results: dict) -> str:
    rows = [["paper: ERD on Lonestar (C24H12)", "", PAPER_T_INT_US, ""]]
    for label, res in results.items():
        before_q, before_eri = BEFORE[label]
        rows.append([f"{label} before (482bd1e)", before_q, before_eri,
                     round(before_eri / PAPER_T_INT_US, 2)])
        rows.append([f"{label} after", res["us_per_quartet"], res["us_per_eri"],
                     round(res["us_per_eri"] / PAPER_T_INT_US, 2)])
    return format_table(
        ["production class-batched kernel", "us/shell quartet", "us/ERI",
         "vs paper t_int"],
        rows,
        title="Table V (ours vs paper): t_int of the kernel every build runs, "
              "single thread",
    )


def test_bench_table5(benchmark, emit):
    report = benchmark.pedantic(
        table5_t_int, kwargs={"nquartets": 4000}, rounds=1, iterations=1
    )
    emit(report)
    for mol, vals in report.data.items():
        assert vals["MD"] > 0 and vals["OS"] > 0
        # the two engines are within two orders of magnitude of each other
        ratio = vals["MD"] / vals["OS"]
        assert 0.01 < ratio < 100


def test_bench_table5_production_kernel(emit):
    results = {
        label: kernel_t_int(cluster, basis) for label, cluster, basis in SYSTEMS
    }
    emit(render_kernel_table(results))
    for label, res in results.items():
        # same order of magnitude as the paper's compiled ERD, per ERI
        assert 0.0 < res["us_per_eri"] < 10 * PAPER_T_INT_US, label


if __name__ == "__main__":
    results = {
        label: kernel_t_int(cluster, basis) for label, cluster, basis in SYSTEMS
    }
    print(render_kernel_table(results))
    sys.exit(0)
