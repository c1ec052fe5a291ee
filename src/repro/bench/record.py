"""Shared BENCH_*.json trajectory recording with schema validation.

Every perf benchmark appends one datapoint to an append-only history
file at the repo root (``BENCH_eri.json``, ``BENCH_fock.json``); the
regression observatory (:mod:`repro.obs.regress`) reads them back.
The append logic used to be copy-pasted across ``benchmarks/test_bench_
*.py`` with naive local timestamps -- this module is the one shared
implementation:

* :func:`append_history` validates the entry against the per-benchmark
  :data:`SCHEMAS` (required keys, expected types) before anything is
  written, so a malformed datapoint fails the benchmark instead of
  silently poisoning the trajectory the observatory grades;
* all new timestamps are timezone-aware UTC ISO-8601 (existing naive
  local entries remain readable -- the observatory only sorts/displays
  them).
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.manifest import utc_now_iso

#: the layers under the class-batched build (tabulated Boys, S + Hcore,
#: Schwarz, the warm-plan build at 1 and 2 jk_threads)
_KERNEL_FLOOR = dict.fromkeys(
    ("boys_ns_per_eval", "oneelec_s", "schwarz_s",
     "t_class_threads1_s", "t_class_threads2_s"),
    float,
)

#: required keys and types per benchmark family.  ``float`` accepts any
#: non-bool number; benchmarks not listed here only need a ``benchmark``
#: name (new families can start recording before they grow a schema).
SCHEMAS: dict[str, dict[str, type]] = {
    "eri_kernels": {
        "molecule": str,
        "basis": str,
        # the reference (per-primitive) kernel vs the class kernel
        "t_seed_s": float,
        "t_class_s": float,
        "class_speedup": float,
        "class_max_abs_diff": float,
        # stored-integral (conventional SCF) mode
        "stored_iter2_s": float,
        "store_iter2_recomputed": float,
        # profiler jk_contraction wall of the stored iteration-2 build
        "jk_contract_s": float,
        **_KERNEL_FLOOR,
    },
    # larger systems where timing the seed kernel is impractical: the
    # class-batched path is the only timed kernel, and numerics are
    # verified on a sampled quartet subset against the per-quartet kernel
    "eri_kernels_large": {
        "molecule": str,
        "basis": str,
        "quartets": float,
        "t_class_s": float,
        "stored_iter2_s": float,
        "jk_contract_s": float,
        "sample_max_abs_diff": float,
        **_KERNEL_FLOOR,
    },
    "fock_table3": {
        "wall_s": float,
        "molecules": dict,
    },
    "fock_chaos": {
        "wall_s": float,
        "fock_error": float,
        "fault_slowdown": float,
        "passed": bool,
    },
    # crash-tolerant SCF service: one seeded chaos run (worker kills
    # mid-iteration) per datapoint -- throughput plus the correctness
    # gates (BENCH_service.json)
    "fock_service": {
        "njobs": float,
        "workers": float,
        "kills_done": float,
        "wall_s": float,
        "jobs_per_min": float,
        "max_energy_error": float,
        "requeues": float,
        "double_records": float,
        "all_done": bool,
        "passed": bool,
    },
    "scf_guard": {
        "wall_off_s": float,
        "wall_on_s": float,
        "overhead": float,
        "energy_matches": bool,
    },
    "fock_sdc": {
        "wall_off_s": float,
        "wall_on_s": float,
        "overhead": float,
        "false_positives": float,
        "energy_matches": bool,
        "passed": bool,
    },
    # the discrete-event simulator's own cost (ROADMAP item 4): untraced
    # wall over the core sweep, rates and tracing tax at the largest
    # cell, the critical-path analysis of its trace without
    # re-simulation, its all-rank prefetch footprints, and the
    # centralized (NWChem) baseline on C24H12 at 12/3888 cores
    "fock_simulator": {
        "molecule": str,
        "wall_s": float,
        "events_per_s": float,
        "tasks_per_s": float,
        "tracing_tax_ratio": float,
        "capture_tax_ratio": float,
        "export_mb_per_s": float,
        "analyze_noresim_s": float,
        "footprint_s": float,
        "nwchem_wall_s": float,
        "counter_accesses_per_s": float,
        "cells": dict,
    },
    "phase_profiler": {
        "wall_off_s": float,
        "wall_on_s": float,
        "overhead": float,
    },
}


def _type_ok(value, expected: type) -> bool:
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is bool:
        return isinstance(value, bool)
    return isinstance(value, expected)


def validate_entry(entry: dict) -> None:
    """Raise ``ValueError`` naming the first missing/mistyped field."""
    if not isinstance(entry, dict):
        raise ValueError("benchmark entry must be a dict")
    name = entry.get("benchmark")
    if not isinstance(name, str) or not name:
        raise ValueError(
            "benchmark entry: missing required field 'benchmark' (str)"
        )
    schema = SCHEMAS.get(name, {})
    for key, expected in schema.items():
        if key not in entry:
            raise ValueError(
                f"benchmark entry {name!r}: missing required field {key!r}"
            )
        if not _type_ok(entry[key], expected):
            raise ValueError(
                f"benchmark entry {name!r}: field {key!r} should be "
                f"{expected.__name__}, got "
                f"{type(entry[key]).__name__} ({entry[key]!r})"
            )


def append_history(
    entry: dict,
    path: pathlib.Path,
    description: str = "perf trajectory (see docs/PERFORMANCE.md)",
) -> dict:
    """Validate ``entry``, stamp it with UTC time, and append it to ``path``.

    Returns the stamped entry actually written.
    """
    validate_entry(entry)
    entry = dict(entry, timestamp=utc_now_iso())
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"description": description, "history": []}
    doc["history"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return entry
