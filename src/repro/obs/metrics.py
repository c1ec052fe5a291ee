"""Labelled Counter/Gauge metrics with JSON and Prometheus export.

A small, dependency-free metrics layer shaped like the Prometheus client
model: a :class:`MetricsRegistry` owns named metrics, each metric owns
one time series per label combination, and the registry renders either a
JSON document (structured consumption, tests) or Prometheus text
exposition format (scrapable).

The :func:`export_commstats` bridge turns the per-process communication
accounting of :class:`~repro.runtime.network.CommStats` -- the source of
the paper's Tables VI/VII/VIII -- into metrics verbatim: integer byte and
call counters are exported without any float round-trip, so the table
values recomputed from the export match the originals bit-for-bit.

The current ``repro.obs.session``'s registry
(:func:`repro.obs.get_metrics`) backs the package-wide instrumentation;
recording into an unwatched registry is a couple of dict operations,
cheap enough to leave always on.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # deferred: repro.runtime.network imports repro.obs.flight
    from repro.runtime.network import CommStats

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_key(
    metric: "Metric", labels: dict[str, object]
) -> tuple[str, ...]:
    if set(labels) != set(metric.labelnames):
        raise ValueError(
            f"metric {metric.name!r} takes labels {sorted(metric.labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in metric.labelnames)


def _render_labels(labelnames: Sequence[str], key: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(f'{n}="{v}"' for n, v in zip(labelnames, key))
    return "{" + inner + "}"


class Metric:
    """Base: a named family of series keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict[tuple[str, ...], object] = {}

    def samples(self) -> list[tuple[str, dict[str, str], object]]:
        """Flat ``(sample_name, labels, value)`` triples for exposition."""
        return [
            (self.name, dict(zip(self.labelnames, key)), value)
            for key, value in sorted(self._series.items())
        ]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": labels, "value": value}
                for _, labels, value in self.samples()
            ],
        }


class Counter(Metric):
    """Monotone accumulator; preserves int-ness of integer increments."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self, labels)
        self._series[key] = self._series.get(key, 0) + amount


class Gauge(Metric):
    """Set-to-current-value metric."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(self, labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(self, labels)
        self._series[key] = self._series.get(key, 0) + amount

    def set_all(self, label: str, values: Sequence[float], **labels) -> None:
        """Make the series matching ``labels`` exactly ``values``, the
        i-th at ``label=i``: matching series past ``len(values)`` are
        dropped, so a per-rank gauge describes the latest run rather
        than the union of every run's ranks."""
        key = _label_key(self, {**labels, label: 0})
        at = self.labelnames.index(label)
        fixed = [(i, v) for i, v in enumerate(key) if i != at]
        for old in [k for k in self._series if all(k[i] == v for i, v in fixed)]:
            del self._series[old]
        head, tail = key[:at], key[at + 1 :]
        for i, value in enumerate(values):
            self._series[head + (str(i),) + tail] = value


class MetricsRegistry:
    """Named metrics with get-or-create constructors and two exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kw):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        metric = cls(name, help, labelnames, **kw)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    # -- exporters -----------------------------------------------------------

    def to_json(self) -> dict:
        return {name: m.to_json() for name, m in sorted(self._metrics.items())}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, metric in sorted(self._metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, value in sorted(metric._series.items()):
                lbl = _render_labels(metric.labelnames, key)
                lines.append(f"{name}{lbl} {_fmt_float(value)}")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        """Write ``.prom`` text exposition or (default) JSON."""
        if str(path).endswith(".prom"):
            with open(path, "w") as fh:
                fh.write(self.to_prometheus())
        else:
            with open(path, "w") as fh:
                json.dump(self.to_json(), fh, indent=2, default=str)


def _fmt_float(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# ---------------------------------------------------------------------------
# CommStats bridge (Tables VI / VII / VIII counters as metrics)
# ---------------------------------------------------------------------------


def _or_current(registry: MetricsRegistry | None) -> MetricsRegistry:
    """``registry``, or the current session's when none was passed."""
    if registry is not None:
        return registry
    from repro.obs.ambient import get_metrics

    return get_metrics()


def export_commstats(stats: "CommStats") -> MetricsRegistry:
    """Export every :class:`CommStats` counter into the current session's
    registry, and return it.

    Per-process integer counters (bytes, calls, and their remote splits)
    are exported as exact ints labelled by ``proc``; the virtual clocks
    become gauges; the paper's aggregate metrics (Table VI volume,
    Table VII calls, Table VIII load balance) are exported as gauges
    computed by ``CommStats`` itself, so the two views cannot drift.
    """
    from repro.obs.ambient import get_metrics

    reg = get_metrics()
    per_proc = (
        ("bytes_total", "bytes moved (incl. local)", stats.bytes, True),
        ("calls_total", "one-sided GA calls", stats.calls, True),
        ("remote_bytes_total", "bytes moved off-node", stats.remote_bytes, True),
        ("remote_calls_total", "one-sided GA calls off-node", stats.remote_calls, True),
        ("clock_seconds", "virtual per-process clock", stats.clock, False),
        ("comm_time_seconds", "clock share spent communicating", stats.comm_time, False),
        ("comp_time_seconds", "clock share spent computing", stats.comp_time, False),
    )
    for suffix, help_, values, is_counter in per_proc:
        name = f"repro_comm_{suffix}"
        if is_counter:
            metric = reg.counter(name, help_, labelnames=("proc",))
            for p in range(stats.nproc):
                metric.inc(int(values[p]), proc=p)
        else:
            metric = reg.gauge(name, help_, labelnames=("proc",))
            for p in range(stats.nproc):
                metric.set(float(values[p]), proc=p)
    summary = stats.summary()
    aggregates = (
        ("volume_mb_per_process", "Table VI: avg MB moved per process",
         summary["avg_volume_mb"]),
        ("calls_per_process", "Table VII: avg GA calls per process",
         summary["avg_calls"]),
        ("load_balance_ratio", "Table VIII: max/mean virtual clock",
         summary["load_balance"]),
        ("makespan_seconds", "slowest virtual clock", summary["makespan"]),
    )
    for suffix, help_, value in aggregates:
        reg.gauge(f"repro_comm_{suffix}", help_).set(value)
    reg.gauge("repro_comm_processes", "simulated process count").set(stats.nproc)
    return reg


def export_faults(state, outcome=None) -> MetricsRegistry:
    """Export a run's fault-injection/recovery counters to the current
    session's registry.

    ``state`` is a :class:`~repro.runtime.faults.FaultState`; ``outcome``
    (optional) a :class:`~repro.fock.stealing.StealingOutcome` whose
    death/re-execution counters are included when given.
    """
    from repro.obs.ambient import get_metrics

    reg = get_metrics()
    retries = reg.counter(
        "repro_faults_retries_total", "transient-failure retries charged",
        labelnames=("proc",),
    )
    acks = reg.counter(
        "repro_faults_acks_lost_total", "applied-but-unacknowledged accumulates",
        labelnames=("proc",),
    )
    delay = reg.gauge(
        "repro_faults_delay_seconds", "injected message-delay virtual time",
        labelnames=("proc",),
    )
    for p in range(state.nproc):
        retries.inc(int(state.retries[p]), proc=p)
        acks.inc(int(state.acks_lost[p]), proc=p)
        delay.set(float(state.delay_time[p]), proc=p)
    reg.gauge(
        "repro_faults_planned_deaths", "rank deaths in the fault plan"
    ).set(len(state.plan.deaths))
    if outcome is not None:
        reg.gauge(
            "repro_faults_dead_ranks", "ranks that died during the run"
        ).set(len(outcome.dead_ranks))
        reg.gauge(
            "repro_faults_reexecuted_tasks",
            "tasks lost to rank death and re-executed by survivors",
        ).set(int(outcome.reexecuted_tasks))
        reg.gauge(
            "repro_faults_recoveries", "orphan-adoption events by survivors"
        ).set(len(outcome.recoveries))
    return reg


def export_service(
    stats: dict,
    registry: MetricsRegistry | None = None,
    **supervisor_counters: int,
) -> MetricsRegistry:
    """Export job-queue state as service gauges.

    ``stats`` is :meth:`repro.service.store.JobStore.stats` (per-state
    job counts + transition-event counts); keyword counters are the
    supervisor's own tallies (``restarts=``, ``timeouts=``,
    ``leases_expired=``).
    """
    reg = _or_current(registry)
    jobs = reg.gauge(
        "repro_service_jobs", "jobs currently in each queue state",
        labelnames=("state",),
    )
    for state, n in stats.get("counts", {}).items():
        jobs.set(int(n), state=state)
    events = reg.counter(
        "repro_service_events_total", "job state-transition events recorded",
        labelnames=("event",),
    )
    for event, n in stats.get("events", {}).items():
        events.inc(int(n), event=event)
    for name, help_ in (
        ("restarts", "worker processes respawned by the supervisor"),
        ("timeouts", "wall-clock timeouts enforced (SIGTERM/SIGKILL)"),
        ("leases_expired", "dead leases re-enqueued by the supervisor"),
    ):
        if name in supervisor_counters:
            reg.gauge(f"repro_service_{name}", help_).set(
                int(supervisor_counters[name])
            )
    return reg


def export_integrity(
    summary: dict,
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Export a run's data-integrity counters.

    ``summary`` is :meth:`repro.runtime.sdc.IntegrityMonitor.summary`:
    detector executions by detector name, corruptions detected by kind
    (store block, checkpoint, F/D matrix), and recoveries taken by
    action (recompute, rollback, eri_recompute).  A healthy run
    exports non-zero checks and all-zero detections -- the observable
    proof that the detectors ran and found nothing.
    """
    reg = _or_current(registry)
    checks = reg.counter(
        "repro_integrity_checks_total", "integrity detector executions",
        labelnames=("detector",),
    )
    for detector, n in summary.get("checks", {}).items():
        checks.inc(int(n), detector=detector)
    detections = reg.counter(
        "repro_integrity_corruptions_detected_total",
        "corruptions caught by an integrity layer",
        labelnames=("kind",),
    )
    for kind, n in summary.get("detections", {}).items():
        detections.inc(int(n), kind=kind)
    recoveries = reg.counter(
        "repro_integrity_recoveries_total",
        "recovery-ladder rungs taken after a detection",
        labelnames=("action",),
    )
    for action, n in summary.get("recoveries", {}).items():
        recoveries.inc(int(n), action=action)
    return reg
