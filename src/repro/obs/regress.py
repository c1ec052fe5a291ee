"""Performance-regression observatory over the BENCH_*.json trajectories.

The benchmark suite appends one entry per run to ``BENCH_eri.json`` and
``BENCH_fock.json`` (see :mod:`repro.bench.record`), but until now
nothing ever read them back -- a 2x ERI slowdown would land in the
history and sit there politely.  This module closes the loop:

* a :class:`MetricSpec` table declares every tracked metric -- where it
  lives (benchmark + dotted key), which direction is good, and whether
  it is graded **relative** to its own history, against an **absolute**
  bound, or as a boolean **flag**;
* relative grading uses a robust baseline: the median of the previous
  ``K`` points, with scatter estimated as ``sigma = 1.4826 * MAD`` (the
  normal-consistent median absolute deviation).  The latest point fails
  only when it is *both* beyond the calibrated ratio threshold *and*
  several sigma outside the historical scatter, so a noisy-but-flat
  series stays green while a genuine spike or drift trips;
* statuses reuse the ``pass``/``warn``/``fail`` vocabulary of
  :mod:`repro.obs.validate`, and :func:`grade` returns a
  :class:`CheckReport` whose worst status drives the ``repro perf
  check`` exit code (FAIL -> nonzero, so CI can gate on it).

``--quick`` restricts grading to machine-independent metrics (speedup
ratios, hit rates, overhead fractions, accuracy bounds) -- absolute
wall times are meaningless when CI hardware differs from the machine
that wrote the history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.validate import FAIL, PASS, WARN

#: normal-consistency factor: sigma = MAD_SCALE * MAD for Gaussian data
MAD_SCALE = 1.4826

#: default baseline window (previous points, latest excluded)
DEFAULT_WINDOW = 8


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


#: every metric the observatory watches.  Dotted keys descend into the
#: entry; a ``*`` segment averages across the values of a mapping (the
#: per-molecule tables of fock_table3).
DEFAULT_SPECS: tuple[MetricSpec, ...] = (
    # -- ERI kernel trajectory (BENCH_eri.json) --------------------------
    # class kernel vs the reference kernel, stored-integral mode
    MetricSpec("eri_kernels", "class_speedup", "higher", "relative",
               warn=1.3, fail=2.0, quick=True, unit="x"),
    MetricSpec("eri_kernels", "class_max_abs_diff", "lower", "absolute",
               warn=1e-13, fail=1e-12, quick=True, unit="Eh"),
    MetricSpec("eri_kernels", "stored_iter2_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("eri_kernels", "t_class_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("eri_kernels_large", "t_class_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    # six-block J/K contraction of a stored (zero-recompute) build
    MetricSpec("eri_kernels", "jk_contract_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("eri_kernels_large", "jk_contract_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("eri_kernels_large", "sample_max_abs_diff", "lower",
               "absolute", warn=1e-11, fail=1e-10, unit="Eh"),
    # the layers under the class-batched build: tabulated Boys, S + Hcore
    # and Schwarz on the stacked pair data, the warm-plan sweep (the
    # 2-thread twin t_class_threads2_s is recorded but measure-only: on a
    # two-core host it swings 3x between runs of one commit)
    *(
        MetricSpec(family, key, "lower", "relative", warn=1.5, fail=3.0,
                   unit=unit)
        for family in ("eri_kernels", "eri_kernels_large")
        for key, unit in (
            ("boys_ns_per_eval", "ns"), ("oneelec_s", "s"),
            ("schwarz_s", "s"), ("t_class_threads1_s", "s"),
        )
    ),
    # -- Fock simulation trajectory (BENCH_fock.json) --------------------
    MetricSpec("fock_table3", "molecules.*.ratio_gtfock_over_nwchem",
               "lower", "absolute", warn=1.0, fail=1.5, quick=True,
               unit="ratio"),
    MetricSpec("fock_table3", "wall_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("fock_chaos", "passed", kind="flag", quick=True),
    MetricSpec("fock_chaos", "fock_error", "lower", "absolute",
               warn=1e-11, fail=1e-10, quick=True, unit="Eh"),
    MetricSpec("fock_chaos", "fault_slowdown", "lower", "relative",
               warn=1.5, fail=3.0, quick=True, unit="x"),
    # critical-path analyzer (BENCH_fock.json, benchmark fock_critpath):
    # the observatory grades *explanatory* metrics, not just wall times
    MetricSpec("fock_critpath", "explained_ratio", "higher", "absolute",
               warn=0.95, fail=0.80, quick=True, unit="frac"),
    MetricSpec("fock_critpath", "idle_fraction", "lower", "absolute",
               warn=0.30, fail=0.60, quick=True, unit="frac"),
    MetricSpec("fock_critpath", "whatif_max_rel_err", "lower", "absolute",
               warn=0.15, fail=0.30, quick=True, unit="frac"),
    MetricSpec("fock_critpath", "decomposition_ok", kind="flag", quick=True),
    MetricSpec("fock_critpath", "wall_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    # the simulator's own cost (benchmark fock_simulator): each tax bound
    # is the ratio recorded when the columnar trace log landed (tracing
    # 1.47, capture 1.86; three runs read 1.16-1.74 and 1.33-2.13) + 0.15
    MetricSpec("fock_simulator", "wall_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("fock_simulator", "tracing_tax_ratio", "lower", "absolute",
               warn=1.62, fail=3.0, unit="x"),
    MetricSpec("fock_simulator", "capture_tax_ratio", "lower", "absolute",
               warn=2.01, fail=3.0, unit="x"),
    MetricSpec("fock_simulator", "export_mb_per_s", "higher", "relative",
               warn=1.5, fail=3.0, unit="MB/s"),
    MetricSpec("fock_simulator", "analyze_noresim_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("fock_simulator", "nwchem_wall_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    # -- SCF service chaos trajectory (BENCH_service.json) ---------------
    MetricSpec("fock_service", "passed", kind="flag", quick=True),
    MetricSpec("fock_service", "all_done", kind="flag", quick=True),
    MetricSpec("fock_service", "max_energy_error", "lower", "absolute",
               warn=1e-13, fail=1e-12, quick=True, unit="Eh"),
    MetricSpec("fock_service", "double_records", "lower", "absolute",
               warn=0.0, fail=0.0, quick=True),
    MetricSpec("fock_service", "jobs_per_min", "higher", "relative",
               warn=1.5, fail=3.0, unit="jobs/min"),
    MetricSpec("fock_service", "wall_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
    MetricSpec("scf_guard", "energy_matches", kind="flag", quick=True),
    MetricSpec("scf_guard", "overhead", "lower", "absolute",
               warn=0.05, fail=0.10, quick=True, unit="frac"),
    MetricSpec("fock_sdc", "passed", kind="flag", quick=True),
    MetricSpec("fock_sdc", "energy_matches", kind="flag", quick=True),
    MetricSpec("fock_sdc", "false_positives", "lower", "absolute",
               warn=0.5, fail=0.5, quick=True),
    MetricSpec("fock_sdc", "overhead", "lower", "absolute",
               warn=0.05, fail=0.10, quick=True, unit="frac"),
    MetricSpec("phase_profiler", "overhead", "lower", "absolute",
               warn=0.05, fail=0.10, quick=True, unit="frac"),
    MetricSpec("phase_profiler", "wall_on_s", "lower", "relative",
               warn=1.5, fail=3.0, unit="s"),
)


def _median(values: list[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def robust_baseline(values: list[float]) -> tuple[float, float]:
    """``(median, sigma)`` with ``sigma = 1.4826 * MAD`` (0 for n<2)."""
    med = _median(values)
    if len(values) < 2:
        return med, 0.0
    mad = _median([abs(v - med) for v in values])
    return med, MAD_SCALE * mad


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


@dataclass
class Finding:
    """The grade of one metric's latest point."""

    spec: MetricSpec
    latest: float
    baseline: float | None
    sigma: float
    status: str
    note: str = ""
    n_points: int = 0
    series: list[float] = field(default_factory=list)
    timestamp: str = ""

    @property
    def ratio(self) -> float | None:
        """Latest-vs-baseline fold in the bad direction (None if no base)."""
        if self.baseline is None or self.kind != "relative":
            return None
        if self.baseline == 0 or self.latest == 0:
            return None
        if self.spec.direction == "higher":
            return self.baseline / self.latest
        return self.latest / self.baseline

    @property
    def kind(self) -> str:
        return self.spec.kind

    def to_json(self) -> dict:
        return {
            "metric": self.spec.label,
            "kind": self.spec.kind,
            "direction": self.spec.direction,
            "latest": self.latest,
            "baseline": self.baseline,
            "sigma": self.sigma,
            "ratio": self.ratio,
            "status": self.status,
            "note": self.note,
            "n_points": self.n_points,
            "timestamp": self.timestamp,
        }


def grade_series(
    spec: MetricSpec, values: list[float], timestamps: list[str] | None = None
) -> Finding:
    """Grade the last point of ``values`` against its history / bounds."""
    latest = values[-1]
    ts = (timestamps or [""] * len(values))[-1]
    common = dict(n_points=len(values), series=list(values), timestamp=ts)

    if spec.kind == "flag":
        ok = bool(latest)
        return Finding(
            spec, latest, None, 0.0, PASS if ok else FAIL,
            note="" if ok else "flag is false", **common,
        )

    if spec.kind == "absolute":
        if spec.direction == "lower":
            bad_warn, bad_fail = latest > spec.warn, latest > spec.fail
        else:
            bad_warn, bad_fail = latest < spec.warn, latest < spec.fail
        status = FAIL if bad_fail else WARN if bad_warn else PASS
        note = "" if status == PASS else (
            f"bound {spec.fail:g}" if bad_fail else f"bound {spec.warn:g}"
        )
        return Finding(spec, latest, None, 0.0, status, note=note, **common)

    # relative: robust baseline over the points before the latest
    prior = values[:-1]
    if not prior:
        return Finding(
            spec, latest, None, 0.0, PASS, note="no baseline yet", **common
        )
    baseline, sigma = robust_baseline(prior)
    if baseline <= 0:
        return Finding(
            spec, latest, baseline, sigma, PASS,
            note="degenerate baseline", **common,
        )
    if spec.direction == "higher":
        ratio = baseline / latest if latest > 0 else float("inf")
        beyond_warn = latest < baseline - 2.0 * sigma
        beyond_fail = latest < baseline - 4.0 * sigma
    else:
        ratio = latest / baseline
        beyond_warn = latest > baseline + 2.0 * sigma
        beyond_fail = latest > baseline + 4.0 * sigma
    # a regression must clear BOTH the calibrated fold threshold and the
    # historical scatter band -- noise alone never trips the gate
    if ratio >= spec.fail and beyond_fail:
        status = FAIL
    elif ratio >= spec.warn and beyond_warn:
        status = WARN
    else:
        status = PASS
    note = "" if status == PASS else f"{ratio:.2f}x vs median of {len(prior)}"
    return Finding(spec, latest, baseline, sigma, status, note=note, **common)


@dataclass
class CheckReport:
    """All findings of one ``repro perf check`` invocation."""

    findings: list[Finding] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        order = {PASS: 0, WARN: 1, FAIL: 2}
        worst = PASS
        for f in self.findings:
            if order[f.status] > order[worst]:
                worst = f.status
        return worst

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "findings": [f.to_json() for f in self.findings],
            "skipped": list(self.skipped),
        }

    def text(self) -> str:
        """Fixed-width console table (mirrors ModelValidation.text)."""
        lines = [
            f"{'metric':<44} {'latest':>12} {'baseline':>12} "
            f"{'ratio':>7} {'n':>3} {'status':>6}",
        ]
        for f in self.findings:
            base = f"{f.baseline:.4g}" if f.baseline is not None else (
                f"<{f.spec.warn:g}" if f.spec.kind == "absolute"
                and f.spec.direction == "lower"
                else f">{f.spec.warn:g}" if f.spec.kind == "absolute"
                else "-"
            )
            ratio = f"{f.ratio:.3f}" if f.ratio is not None else "-"
            lines.append(
                f"{f.spec.label:<44} {f.latest:>12.4g} {base:>12} "
                f"{ratio:>7} {f.n_points:>3} {f.status:>6}"
            )
        for label in self.skipped:
            lines.append(f"{label:<44} {'-':>12} {'-':>12} {'-':>7} "
                         f"{'-':>3} {'n/a':>6}")
        counts = {PASS: 0, WARN: 0, FAIL: 0}
        for f in self.findings:
            counts[f.status] += 1
        lines.append(
            f"observatory: {counts[PASS]} pass, {counts[WARN]} warn, "
            f"{counts[FAIL]} fail -> {self.status.upper()}"
        )
        return "\n".join(lines)


def load_history(path: str | Path) -> list[dict]:
    """Entries of one BENCH_*.json file ([] when the file is absent)."""
    p = Path(path)
    if not p.exists():
        return []
    doc = json.loads(p.read_text(encoding="utf-8"))
    hist = doc.get("history", []) if isinstance(doc, dict) else doc
    return [e for e in hist if isinstance(e, dict)]


def series_for(
    entries: list[dict], spec: MetricSpec
) -> tuple[list[float], list[str]]:
    """``(values, timestamps)`` of one spec across a history file."""
    values: list[float] = []
    stamps: list[str] = []
    for entry in entries:
        if entry.get("benchmark") != spec.benchmark:
            continue
        v = extract(entry, spec.key)
        if v is None:
            continue
        values.append(v)
        stamps.append(str(entry.get("timestamp", "")))
    return values, stamps


def grade(
    histories: list[str | Path],
    specs: tuple[MetricSpec, ...] = DEFAULT_SPECS,
    quick: bool = False,
    window: int = DEFAULT_WINDOW,
    runs: str | Path | None = None,
) -> CheckReport:
    """Grade every tracked metric over the given BENCH history files.

    ``window`` bounds the baseline to the last K prior points so ancient
    history cannot mask a slow recent drift.  With ``runs`` set, ledger
    summaries under that root join the check: a completed run must have
    exited 0 and (when it recorded one) a truthy ``converged`` field.
    """
    entries: list[dict] = []
    for path in histories:
        entries.extend(load_history(path))
    report = CheckReport()
    for spec in specs:
        if quick and not spec.quick:
            continue
        values, stamps = series_for(entries, spec)
        if not values:
            report.skipped.append(spec.label)
            continue
        tail = values[-(window + 1):]
        report.findings.append(
            grade_series(spec, tail, stamps[-(window + 1):])
        )
    if runs is not None:
        report.findings.extend(_grade_runs(runs))
    return report


def _grade_runs(root: str | Path) -> list[Finding]:
    """Flag findings from persisted run-ledger summaries under ``root``."""
    from repro.obs.manifest import find_runs

    findings = []
    for rec in find_runs(root):
        if rec.summary is None:
            continue  # still in flight (or crashed); not this gate's job
        name = rec.path.name
        rc = rec.summary.get("exit_code", 0)
        spec = MetricSpec(f"run:{name}", "exit_code", kind="flag",
                          quick=True)
        findings.append(Finding(
            spec, float(rc == 0), None, 0.0, PASS if rc == 0 else FAIL,
            note="" if rc == 0 else f"exit code {rc}", n_points=1,
            timestamp=str(rec.summary.get("finished_utc", "")),
        ))
        if "converged" in rec.summary:
            conv = bool(rec.summary["converged"])
            cspec = MetricSpec(f"run:{name}", "converged", kind="flag",
                               quick=True)
            findings.append(Finding(
                cspec, float(conv), None, 0.0, PASS if conv else FAIL,
                note="" if conv else "SCF did not converge", n_points=1,
                timestamp=str(rec.summary.get("finished_utc", "")),
            ))
        stamp = str(rec.summary.get("finished_utc", ""))
        cp = rec.summary.get("critpath")
        if isinstance(cp, dict) and "decomposition_ok" in cp:
            ok = bool(cp["decomposition_ok"])
            dspec = MetricSpec(f"run:{name}", "critpath_decomposition_ok",
                               kind="flag", quick=True)
            findings.append(Finding(
                dspec, float(ok), None, 0.0, PASS if ok else FAIL,
                note="" if ok else (
                    f"max residual {cp.get('max_residual', '?')} s"
                ),
                n_points=1, timestamp=stamp,
            ))
        store = rec.summary.get("eri_store")
        if isinstance(store, dict) and store.get("warm_start"):
            # a warm-started store must serve everything: a single
            # recomputed quartet means the store's coverage regressed
            computed = int(store.get("computed", 0))
            sspec = MetricSpec(f"run:{name}", "store_zero_recompute",
                               kind="flag", quick=True)
            findings.append(Finding(
                sspec, float(computed == 0), None, 0.0,
                PASS if computed == 0 else FAIL,
                note="" if computed == 0 else (
                    f"{computed} quartets recomputed despite a warm store"
                ),
                n_points=1, timestamp=stamp,
            ))
        jk = rec.summary.get("jk_threads")
        if (
            isinstance(jk, dict)
            and jk.get("balance") is not None
            and int(jk.get("workers", 0)) > 1
        ):
            bal = float(jk["balance"])
            jspec = MetricSpec(f"run:{name}", "jk_worker_balance", "lower",
                               "absolute", warn=1.5, fail=3.0, quick=True,
                               unit="x")
            status = PASS if bal <= 1.5 else (WARN if bal <= 3.0 else FAIL)
            findings.append(Finding(
                jspec, bal, None, 0.0, status,
                note=f"slowest/mean J/K worker wall = {bal:.2f}x",
                n_points=1, timestamp=stamp,
            ))
    return findings


def history_text(
    histories: list[str | Path],
    specs: tuple[MetricSpec, ...] = DEFAULT_SPECS,
    last: int = 6,
) -> str:
    """Trajectory table for ``repro perf history``: last N points per metric."""
    entries: list[dict] = []
    for path in histories:
        entries.extend(load_history(path))
    lines = [f"{'metric':<44} {'n':>3}  trajectory (oldest -> newest)"]
    for spec in specs:
        values, _ = series_for(entries, spec)
        if not values:
            continue
        shown = values[-last:]
        ell = ".. " if len(values) > last else ""
        traj = " ".join(f"{v:.4g}" for v in shown)
        lines.append(f"{spec.label:<44} {len(values):>3}  {ell}{traj}")
    if len(lines) == 1:
        lines.append("(no benchmark history found)")
    return "\n".join(lines)
