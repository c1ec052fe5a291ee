"""The BENCH family table: what is recorded, where, and how it is graded.

A *family* is one kind of datapoint in an append-only ``BENCH_*.json``
history at the repo root.  :data:`FAMILIES` declares each one once --
its history file, the required fields that carry no grade, and one
:class:`MetricSpec` row per graded metric -- and everything else reads
it:

* :func:`append_history` validates an entry against its family
  (:func:`validate_entry`: a malformed datapoint fails the benchmark
  instead of poisoning the trajectory), stamps it with timezone-aware
  UTC ISO-8601 time and appends it to the family's file;
* :mod:`repro.obs.regress` grades the histories (``repro perf check`` /
  ``history``) and one fresh entry (``gate``) from the same rows;
* ``python -m benchmarks`` runs measure -> validate -> gate -> append
  for any family named here.

Adding a metric is one row; adding a family is one :func:`_family` call
plus one measure function in ``benchmarks/``.  A graded key is a
required field by construction, so ``fields`` lists ungraded keys only.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass

from repro.obs.manifest import utc_now_iso


@dataclass(frozen=True)
class MetricSpec:
    """One tracked metric: location, goodness direction, and thresholds.

    ``kind``:
      * ``"relative"`` -- grade the latest point against the robust
        baseline of its own history; ``warn``/``fail`` are fold ratios.
      * ``"absolute"`` -- grade the latest value against hard bounds;
        ``warn``/``fail`` are values in the metric's own unit.
      * ``"flag"`` -- the value must be truthy; anything else FAILs.

    ``direction`` is ``"lower"`` (smaller is better: times, errors,
    overheads) or ``"higher"`` (speedups, hit rates).  ``quick`` marks
    machine-independent metrics safe to grade on foreign hardware.
    Dotted keys descend into the entry; a ``*`` segment averages across
    the values of a mapping (see :func:`extract`).
    """

    benchmark: str
    key: str
    direction: str = "lower"
    kind: str = "relative"
    warn: float = 1.3
    fail: float = 2.0
    quick: bool = False
    unit: str = ""

    @property
    def label(self) -> str:
        return f"{self.benchmark}.{self.key}"


@dataclass(frozen=True)
class Family:
    """One BENCH family: history file, ungraded fields, graded metrics."""

    name: str
    history: str
    fields: dict[str, type]
    specs: tuple[MetricSpec, ...]

    @property
    def required(self) -> dict[str, type]:
        """Every top-level key an entry must carry, with its type."""
        req = dict(self.fields)
        for spec in self.specs:
            head, _, rest = spec.key.partition(".")
            req[head] = (
                dict if rest else bool if spec.kind == "flag" else float
            )
        return req


#: history file (relative to the histories root) -> the description
#: written when the file is first created
HISTORIES: dict[str, str] = {
    "BENCH_eri.json": "ERI kernel perf trajectory (see docs/PERFORMANCE.md)",
    "BENCH_fock.json":
        "Fock-simulation perf trajectory (see docs/PERFORMANCE.md)",
    "BENCH_service.json":
        "crash-tolerant SCF service trajectory: seeded worker-kill chaos "
        "runs (see docs/ROBUSTNESS.md#service-resilience)",
    "BENCH_perfbench.json":
        "perfbench trajectory: python3 -m perfbench --seed 0, untraced and "
        "traced (see docs/BENCH_FAMILIES.md)",
}

FAMILIES: dict[str, Family] = {}


def _rel(key, unit="s", direction="lower", warn=1.5, fail=3.0, quick=False):
    """A wall-time-like metric graded against its own history."""
    return MetricSpec("", key, direction, "relative", warn, fail, quick, unit)


def _bound(key, warn, fail, unit="", direction="lower", quick=True):
    """A metric graded against hard bounds (pass iff within ``warn``)."""
    return MetricSpec("", key, direction, "absolute", warn, fail, quick, unit)


def _flag(key):
    return MetricSpec("", key, kind="flag", quick=True)


def _family(name: str, history: str, fields: dict, *specs: MetricSpec):
    assert history in HISTORIES and name not in FAMILIES
    FAMILIES[name] = Family(
        name, history, fields,
        tuple(dataclasses.replace(s, benchmark=name) for s in specs),
    )


# the layers under the class-batched build: tabulated Boys, S + Hcore and
# Schwarz on the stacked pair data, the warm-plan build (one thread; the
# key keeps the name its trajectory started under)
_KERNEL_FLOOR = (
    _rel("boys_ns_per_eval", "ns"), _rel("oneelec_s"), _rel("schwarz_s"),
    _rel("t_class_threads1_s"),
)

# -- ERI kernel trajectory: class kernel vs the reference (per-primitive)
# kernel, and stored-integral (conventional SCF) mode: the first served
# build (stored_iter2_s: the supermatrix mapping), every later one
# (stored_steady_s: J and K served, of which jk_contract_s is the
# profiler's jk_contraction wall; stored_fock_steady_s: a served RHF F,
# two mat-vecs over the folded P; medians of 5), the traced peak of a
# cold fill (stored_fill_peak_mb: allocations, so machine independent),
# the RAM the matrices hold and the primitive quartets one build sweeps
# (exact, so recorded, not graded)
_family(
    "eri_kernels", "BENCH_eri.json",
    {"molecule": str, "basis": str, "t_seed_s": float,
     "store_iter2_recomputed": float,
     "supermatrix_mb": float, "prim_quartets_swept": float},
    _rel("class_speedup", "x", "higher", warn=1.3, fail=2.0, quick=True),
    _bound("class_max_abs_diff", 1e-13, 1e-12, "Eh"),
    _rel("stored_iter2_s"), _rel("stored_steady_s"), _rel("stored_fock_steady_s"),
    _rel("t_class_s"), _rel("jk_contract_s"), _rel("stored_fill_peak_mb", "MB", quick=True),
    *_KERNEL_FLOOR,
)
# larger systems where timing the seed kernel is impractical: the class
# kernel is the only timed one, numerics are verified on a sampled
# quartet subset against the per-quartet kernel
_family(
    "eri_kernels_large", "BENCH_eri.json",
    {"molecule": str, "basis": str, "quartets": float,
     "stored_iter2_s": float,
     "supermatrix_mb": float, "prim_quartets_swept": float},
    _rel("t_class_s"), _rel("jk_contract_s"), _rel("stored_steady_s"),
    _rel("stored_fill_peak_mb", "MB"),
    _bound("sample_max_abs_diff", 1e-11, 1e-10, "Eh", quick=False),
    *_KERNEL_FLOOR,
)
# -- Fock simulation trajectory ------------------------------------------
_family(
    "fock_table3", "BENCH_fock.json", {},
    _bound("molecules.*.ratio_gtfock_over_nwchem", 1.0, 1.5, "ratio"),
    _rel("wall_s"), _rel("setup_s", quick=True),
)
_family(
    "fock_chaos", "BENCH_fock.json", {"wall_s": float},
    _flag("passed"),
    _bound("fock_error", 1e-11, 1e-10, "Eh"),
    _rel("fault_slowdown", "x", quick=True),
)
# -- crash-tolerant SCF service: one seeded chaos run (worker kills
# mid-iteration) per datapoint -- throughput plus the correctness gates
_family(
    "fock_service", "BENCH_service.json",
    {"njobs": float, "workers": float, "kills_done": float,
     "requeues": float},
    _flag("passed"), _flag("all_done"),
    _bound("max_energy_error", 1e-13, 1e-12, "Eh"),
    _bound("double_records", 0.0, 0.0),
    _rel("jobs_per_min", "jobs/min", "higher"),
    _rel("wall_s"),
)
# -- probes on a healthy run: free (<= 5% of wall_s) and invisible --
_family(
    "scf_guard", "BENCH_fock.json",
    {"wall_s": float, "guard_s": float},
    _flag("energy_matches"),
    _bound("overhead", 0.05, 0.05, "frac"),
)
_family(
    "fock_sdc", "BENCH_fock.json",
    {"wall_s": float, "integrity_s": float},
    _flag("passed"), _flag("energy_matches"),
    _bound("false_positives", 0.5, 0.5),
    _bound("overhead", 0.05, 0.05, "frac"),
)
_family(
    "phase_profiler", "BENCH_fock.json", {"wall_off_s": float},
    _bound("overhead", 0.05, 0.05, "frac"),
    _rel("wall_on_s"),
    # the quartets its RHF computes: an exact count, so any rise is real
    _rel("quartets_computed", "quartets", warn=1.01, fail=1.05, quick=True),
)
# -- the benchmark itself: python3 -m perfbench at seed 0, untraced and
# traced.  Each workload's end-to-end metrics (value, min, max of the
# rounds); the per-layer rows are the simulator's and the critical-path
# analyzer's cost on sim_sweep / sim_traced (C54H18 at 3888 cores).  The
# tax row is Tracer + SimCapture against untraced on the same cell
_family(
    "perfbench", "BENCH_perfbench.json", {"seed": float, "wall_s": float},
    _flag("correct"),
    *(_rel(f"{w}.time_to_solution_s.value")
      for w in ("scf_direct", "scf_stored", "sim_sweep", "sim_traced")),
    _bound("tracing_tax_ratio", 1.62, 3.0, "x", quick=False),
    _rel("export_mb_per_s", "MB/s", "higher"),
    _rel("critpath_analyze_s"), _rel("analyze_noresim_s"), _rel("nwchem_sim_s"),
    _bound("critpath_explained_ratio", 0.95, 0.95, "frac", "higher"),
    _bound("whatif_max_rel_err", 0.15, 0.15, "frac"),
)


def all_specs() -> tuple[MetricSpec, ...]:
    """Every graded metric of every family, in table order."""
    return tuple(s for fam in FAMILIES.values() for s in fam.specs)


def extract(entry: dict, key: str) -> float | None:
    """Resolve a dotted key in ``entry``; ``*`` averages a mapping level."""
    node = entry
    parts = key.split(".")
    for i, part in enumerate(parts):
        if part == "*":
            if not isinstance(node, dict) or not node:
                return None
            rest = ".".join(parts[i + 1:])
            vals = [extract(child, rest) if rest else child
                    for child in node.values()]
            vals = [v for v in vals if isinstance(v, (int, float))]
            return float(sum(vals) / len(vals)) if vals else None
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool):
        return 1.0 if node else 0.0
    if isinstance(node, (int, float)):
        return float(node)
    return None


def _type_ok(value, expected: type) -> bool:
    if expected is float:  # any non-bool number
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, expected)


def validate_entry(entry: dict) -> Family:
    """The entry's family; ``ValueError`` names the first bad field."""
    if not isinstance(entry, dict):
        raise ValueError("benchmark entry must be a dict")
    name = entry.get("benchmark")
    if not isinstance(name, str) or not name:
        raise ValueError(
            "benchmark entry: missing required field 'benchmark' (str)"
        )
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError(
            f"benchmark entry {name!r}: undeclared family "
            f"(declared in repro.bench.record: {', '.join(FAMILIES)})"
        )
    for key, expected in family.required.items():
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
    for spec in family.specs:
        if extract(entry, spec.key) is None:
            raise ValueError(
                f"benchmark entry {name!r}: graded key {spec.key!r} does "
                "not resolve to a number"
            )
    return family


def append_history(entry: dict, root: str | pathlib.Path = ".") -> dict:
    """Validate ``entry``, stamp it with UTC time, and append it to its
    family's history file under ``root`` (the repo root for the committed
    trajectories).  Returns the stamped entry actually written.
    """
    family = validate_entry(entry)
    entry = dict(entry, timestamp=utc_now_iso())
    path = pathlib.Path(root) / family.history
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"description": HISTORIES[family.history], "history": []}
    doc["history"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return entry
