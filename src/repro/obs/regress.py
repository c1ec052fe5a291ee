"""Performance-regression observatory over the BENCH_*.json trajectories.

The benchmark suite appends one entry per run to the ``BENCH_*.json``
histories; this module reads them back, so a 2x ERI slowdown cannot land
in a history and sit there politely:

* the family table of :mod:`repro.bench.record` declares every tracked
  metric as a :class:`MetricSpec` row -- where it lives (family + dotted
  key), which direction is good, and whether it is graded **relative**
  to its own history, against an **absolute** bound, or as a boolean
  **flag**; :func:`grade` walks the histories with those rows and
  :func:`gate` holds one fresh entry to the same bounds before it is
  appended;
* relative grading uses a robust baseline: the median of the previous
  ``K`` points, with scatter estimated as ``sigma = 1.4826 * MAD`` (the
  normal-consistent median absolute deviation).  The latest point fails
  only when it is *both* beyond the calibrated ratio threshold *and*
  several sigma outside the historical scatter (the fold
  ``1 + k * sigma / median`` in the bad direction), so a noisy-but-flat
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

from repro.bench.record import (
    MetricSpec,
    all_specs,
    extract,
    validate_entry,
)
from repro.obs.validate import FAIL, PASS, WARN

#: normal-consistency factor: sigma = MAD_SCALE * MAD for Gaussian data
MAD_SCALE = 1.4826

#: default baseline window (previous points, latest excluded)
DEFAULT_WINDOW = 8


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
    else:
        ratio = latest / baseline
    # the band is a fold too, so a higher-is-better metric mirrors a lower
    # one: baseline - 4 sigma would reach zero once sigma > baseline / 4,
    # and then no drop could fail
    band = sigma / baseline
    beyond_warn = ratio > 1.0 + 2.0 * band
    beyond_fail = ratio > 1.0 + 4.0 * band
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

    findings: list[Finding] = field(default_factory=list, init=False)
    skipped: list[str] = field(default_factory=list, init=False)

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

    @property
    def failures(self) -> list[str]:
        """One ``label = value (note)`` line per FAIL-graded finding."""
        return [
            f"{f.spec.label} = {f.latest:g} ({f.note})"
            for f in self.findings if f.status == FAIL
        ]

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
                f"<={f.spec.warn:g}" if f.spec.kind == "absolute"
                and f.spec.direction == "lower"
                else f">={f.spec.warn:g}" if f.spec.kind == "absolute"
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


def grade_entries(
    entries: list[dict],
    specs: tuple[MetricSpec, ...],
    quick: bool = False,
    window: int = DEFAULT_WINDOW,
) -> CheckReport:
    """Grade the latest point of each spec's series over ``entries``."""
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
    return report


def grade(
    histories: list[str | Path],
    quick: bool = False,
    window: int = DEFAULT_WINDOW,
    runs: str | Path | None = None,
) -> CheckReport:
    """Grade every tracked metric (each row of the family table) over the
    given BENCH history files.  ``window``
    bounds the baseline to the last K prior points so ancient history
    cannot mask a slow recent drift.  With ``runs`` set, ledger
    summaries under that root join the check: a completed run must have
    exited 0 and (when it recorded one) a truthy ``converged`` field.
    """
    entries: list[dict] = []
    for path in histories:
        entries.extend(load_history(path))
    report = grade_entries(entries, all_specs(), quick, window)
    if runs is not None:
        report.findings.extend(_grade_runs(runs))
    return report


def gate(entry: dict, quick: bool = False) -> CheckReport:
    """Hold one fresh entry to its family's absolute and flag rows.

    The same grading ``repro perf check`` applies to the latest point of
    a history, before the point is appended (relative rows need a
    history and are left to the observatory).  Raises ``ValueError``
    naming every metric graded FAIL; otherwise returns the report.
    """
    family = validate_entry(entry)
    report = grade_entries(
        [entry],
        tuple(s for s in family.specs if s.kind != "relative"),
        quick=quick,
    )
    if not report.passed:
        raise ValueError(
            f"{family.name} gate failed: " + "; ".join(report.failures)
        )
    return report


def _grade_runs(root: str | Path) -> list[Finding]:
    """Flag findings from persisted run-ledger summaries under ``root``."""
    from repro.obs.manifest import find_runs

    findings = []
    for rec in find_runs(root):
        if rec.summary is None:
            continue  # still in flight (or crashed); not this gate's job
        summary = rec.summary
        family = f"run:{rec.path.name}"
        stamp = str(summary.get("finished_utc", ""))

        def flag(key: str, ok: bool, note: str) -> None:
            findings.append(Finding(
                MetricSpec(family, key, kind="flag", quick=True),
                float(ok), None, 0.0, PASS if ok else FAIL,
                note="" if ok else note, n_points=1, timestamp=stamp,
            ))

        rc = summary.get("exit_code", 0)
        flag("exit_code", rc == 0, f"exit code {rc}")
        if "converged" in summary:
            flag("converged", bool(summary["converged"]),
                 "SCF did not converge")
        cp = summary.get("critpath")
        if isinstance(cp, dict) and "decomposition_ok" in cp:
            flag("critpath_decomposition_ok", bool(cp["decomposition_ok"]),
                 f"max residual {cp.get('max_residual', '?')} s")
        store = summary.get("eri_store")
        if isinstance(store, dict) and store.get("warm_start"):
            # a warm-started store must serve everything: a single
            # recomputed quartet means the store's coverage regressed
            computed = int(store.get("computed", 0))
            flag("store_zero_recompute", computed == 0,
                 f"{computed} quartets recomputed despite a warm store")
    return findings


def history_text(histories: list[str | Path], last: int = 6) -> str:
    """Trajectory table for ``repro perf history``: last N points per metric."""
    entries: list[dict] = []
    for path in histories:
        entries.extend(load_history(path))
    lines = [f"{'metric':<44} {'n':>3}  trajectory (oldest -> newest)"]
    for spec in all_specs():
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
