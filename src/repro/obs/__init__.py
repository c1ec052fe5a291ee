"""Unified observability: dual-clock tracing and labelled metrics.

``repro.obs`` is the substrate the evaluation stands on -- the paper's
Tables VI-VIII and Figure 2 are all observability artifacts.  Its parts:

* :mod:`repro.obs.trace` -- :class:`Tracer` with nested host (wall-clock)
  spans and explicit-time virtual spans for simulated ranks, exported as
  Chrome trace-event JSON (open in Perfetto) or JSONL;
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` of labelled
  Counters/Gauges with JSON + Prometheus exposition, and the
  :func:`export_commstats` bridge from the runtime's accounting;
* :mod:`repro.obs.flight` -- the per-rank, per-channel
  :class:`FlightRecorder` every :class:`CommStats` charge flows through;
* :mod:`repro.obs.validate` / :mod:`repro.obs.report` -- Sec III-G
  model-vs-measured validation and the self-contained HTML run report
  (``repro report``);
* :mod:`repro.obs.profile` -- :class:`PhaseProfiler` attributing wall /
  CPU / peak-allocation cost to named pipeline phases, plus the opt-in
  cProfile hotspot capture (``repro perf profile``);
* :mod:`repro.obs.manifest` -- the :class:`RunLedger` writing durable
  run directories (``manifest.json`` / ``metrics.jsonl`` /
  ``summary.json``) and the loader behind ``repro report <rundir>``;
* :mod:`repro.obs.regress` -- the regression observatory grading the
  BENCH_*.json perf trajectories (``repro perf check``);
* :mod:`repro.obs.ambient` -- the one ambient :class:`ObsSession`:
  instrumented code reads its tracer / registry / ledger through
  :func:`get_tracer` / :func:`get_metrics` / :func:`get_ledger`,
  ``with repro.obs.phase(name):`` is the one probe a named region
  needs (profiler phase and tracer span from one timing), and ``with repro.obs.session(...)`` is the one way to install
  instruments and the one place they are torn down.

The default session holds no-op instruments (and one live registry), so
instrumented code pays nothing until ``--trace`` / ``--profile`` /
``--run-dir`` -- or a :func:`session` -- turns them on.

See ``docs/OBSERVABILITY.md`` for the span schema and metric names.
"""

from repro.obs.ambient import (
    ObsSession,
    get_ledger,
    get_metrics,
    get_tracer,
    phase,
    session,
)
from repro.obs.flight import CHANNELS, FlightRecorder
from repro.obs.manifest import (
    LedgerError,
    NullLedger,
    RunLedger,
    RunRecord,
    load_run,
    provenance,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Metric,
    MetricsRegistry,
    export_commstats,
)
from repro.obs.profile import NullProfiler, PhaseProfiler
from repro.obs.trace import (
    HOST_PID,
    NULL_TRACER,
    SIM_PID,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "ObsSession",
    "get_ledger",
    "get_metrics",
    "get_tracer",
    "phase",
    "session",
    "CHANNELS",
    "FlightRecorder",
    "LedgerError",
    "NullLedger",
    "RunLedger",
    "RunRecord",
    "load_run",
    "provenance",
    "Counter",
    "Gauge",
    "Metric",
    "MetricsRegistry",
    "export_commstats",
    "NullProfiler",
    "PhaseProfiler",
    "HOST_PID",
    "NULL_TRACER",
    "SIM_PID",
    "NullTracer",
    "TraceEvent",
    "Tracer",
]
