"""The BENCH runner: measure -> describe -> validate -> gate -> append.

    python -m benchmarks [FAMILY ...] [--quick]

Every family of the table in :mod:`repro.bench.record` has one measure
function here, ``measure(quick) -> (entry, description)``, which also
asserts the invariants that are not graded metrics.  The runner prints
the description, holds the entry to its family's schema and absolute /
flag bounds (:func:`repro.obs.regress.gate`) and appends it to the
family's history at the repo root.  ``--quick`` runs the smaller CI
variant, grades only the machine-independent rows and appends nothing.
With no family named, all of them run.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.record import FAMILIES, append_history
from repro.obs.regress import gate

from benchmarks import (
    test_bench_chaos,
    test_bench_eri_kernels,
    test_bench_perfbench,
    test_bench_profiler,
    test_bench_scf_guard,
    test_bench_sdc,
    test_bench_service,
    test_bench_table3_times,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

MEASURES = {
    "eri_kernels": test_bench_eri_kernels.measure,
    "eri_kernels_large": test_bench_eri_kernels.measure_large,
    "fock_table3": test_bench_table3_times.measure,
    "fock_chaos": test_bench_chaos.measure,
    "fock_service": test_bench_service.measure,
    "scf_guard": test_bench_scf_guard.measure,
    "fock_sdc": test_bench_sdc.measure,
    "phase_profiler": test_bench_profiler.measure,
    "perfbench": test_bench_perfbench.measure,
}
assert MEASURES.keys() == FAMILIES.keys()


def run_family(name: str, quick: bool = False, emit=print) -> dict:
    """Measure one family; returns the entry (stamped when appended)."""
    entry, description = MEASURES[name](quick)
    emit(description)
    gate(entry, quick=quick)
    if quick:
        return entry
    return append_history(entry, ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("family", nargs="*", help=", ".join(MEASURES))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if unknown := set(args.family) - MEASURES.keys():
        parser.error(f"unknown family: {', '.join(sorted(unknown))}")
    failed = []
    for name in args.family or MEASURES:
        try:
            run_family(name, quick=args.quick)
        except (AssertionError, ValueError) as exc:  # invariant | gate
            print(f"{name} FAILED: {exc}", file=sys.stderr)
            failed.append(name)
            continue
        if not args.quick:
            print(f"appended {name} datapoint to {FAMILIES[name].history}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
