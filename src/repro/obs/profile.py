"""Phase profiler: wall + CPU + allocation attribution for named phases.

The ROADMAP's "next 10x on the ERI/Fock hot path" starts from the same
place every serious restructure does (the Xeon Phi HF work restructured
its loops *from hotspot profiles*): knowing where the Python wall-clock,
CPU time, and allocations actually go.  :class:`PhaseProfiler` wraps the
pipeline's named phases --

``pairdata_build``, ``schwarz_screening``, ``eri_quartets``,
``jk_contraction``, ``diagonalize``/``purify``, ``diis``,
``fock_build``, ``sim_event_loop``

-- and accumulates, per phase: call count, inclusive wall seconds
(``time.perf_counter``), inclusive CPU seconds (``time.process_time``),
and (opt-in, ``alloc=True``) the peak ``tracemalloc`` allocation
observed while the phase was innermost.  Each phase occurrence is also
emitted as a host span (``cat="phase"``) into the active
:class:`~repro.obs.trace.Tracer`, so Perfetto shows the phases next to
the existing span schema.

Like the tracer and the metrics registry, the profiler is an attribute
of the current ``repro.obs.session`` read through
:func:`repro.obs.get_profiler`; the default :data:`NULL_PROFILER` makes
every probe a no-op, so leaving the
instrumentation in the hot path costs essentially nothing when disabled
(and <= 5% when enabled without ``alloc``, gated by
``benchmarks/test_bench_profiler.py``).

The opt-in **hotspot table** (:func:`profile_hotspots`) runs a callable
under :mod:`cProfile` and extracts the top-N functions by cumulative
time -- rendered as text by :func:`hotspot_text` (``repro perf
profile``) and as HTML in the run-ledger report.
"""

from __future__ import annotations

import cProfile
import pstats
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

#: the canonical phase taxonomy (documented in docs/OBSERVABILITY.md);
#: free-form names are allowed, these are the ones the pipeline emits
PHASE_PAIRDATA = "pairdata_build"
PHASE_SCHWARZ = "schwarz_screening"
PHASE_CLASS_PLAN = "class_plan"
PHASE_ERI = "eri_quartets"
PHASE_JK = "jk_contraction"
PHASE_DIAG = "diagonalize"
PHASE_PURIFY = "purify"
PHASE_DIIS = "diis"
PHASE_FOCK = "fock_build"
PHASE_SIM_LOOP = "sim_event_loop"

#: phase occurrences shorter than this are aggregated but not mirrored
#: as tracer spans -- the per-quartet ERI/JK phases (thousands per Fock
#: build) would otherwise flood the Perfetto timeline
TRACE_MIRROR_MIN_WALL_S = 1e-4


@dataclass
class PhaseStat:
    """Accumulated cost of one named phase (inclusive of nested phases)."""

    name: str
    calls: int = field(default=0, init=False)
    wall_s: float = field(default=0.0, init=False)
    cpu_s: float = field(default=0.0, init=False)
    max_wall_s: float = field(default=0.0, init=False)
    #: peak tracemalloc bytes observed while this phase was innermost
    #: (0 unless the profiler was built with ``alloc=True``)
    alloc_peak_bytes: int = field(default=0, init=False)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "max_wall_s": self.max_wall_s,
            "alloc_peak_bytes": self.alloc_peak_bytes,
        }


class _PhaseSpan:
    """Reusable context manager recording occurrences of one phase.

    The profiler hands out one span per phase name and reuses it across
    occurrences (the ERI/JK probes fire tens of thousands of times per
    Fock build; allocating a fresh context manager each time is pure GC
    pressure).  ``busy`` guards reentrant same-name nesting: a busy span
    falls back to a fresh throwaway instance.
    """

    __slots__ = ("prof", "name", "t0", "c0", "peak", "busy", "stat")

    def __init__(self, prof: "PhaseProfiler", name: str):
        self.prof = prof
        self.name = name
        self.peak = 0
        self.busy = False
        self.stat: PhaseStat | None = None

    def __enter__(self) -> "_PhaseSpan":
        self.busy = True
        prof = self.prof
        if prof.alloc:
            prof._enter_alloc(self)
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> bool:
        # record unconditionally: a phase that raises still happened and
        # its cost is still attributable (exception safety is tested)
        wall = time.perf_counter() - self.t0
        cpu = time.process_time() - self.c0
        prof = self.prof
        stat = self.stat
        if stat is None:
            stat = prof.stats.get(self.name)
            if stat is None:
                stat = prof.stats[self.name] = PhaseStat(self.name)
            self.stat = stat
        stat.calls += 1
        stat.wall_s += wall
        if cpu > 0.0:
            stat.cpu_s += cpu
        if wall > stat.max_wall_s:
            stat.max_wall_s = wall
        if prof.alloc:
            prof._exit_alloc(self, stat)
        # mirror the phase as a host span on the active tracer (no-op on
        # the null tracer; micro-phases stay aggregate-only)
        if wall >= TRACE_MIRROR_MIN_WALL_S:
            prof._mirror(self.name, wall)
        self.busy = False
        return False


class PhaseProfiler:
    """Collects per-phase wall/CPU/allocation statistics.

    Parameters
    ----------
    alloc:
        Attribute ``tracemalloc`` peak allocations to phases.  Starts
        tracemalloc if it is not already tracing (and stops it again in
        :meth:`close` if this profiler started it).  Allocation tracing
        slows Python allocation-heavy code down substantially -- it is
        off by default and excluded from the <= 5% overhead gate.
    """

    enabled = True

    def __init__(self, alloc: bool = False):
        self.stats: dict[str, PhaseStat] = {}
        self.alloc = alloc
        self._spans: dict[str, _PhaseSpan] = {}
        self._stack: list[_PhaseSpan] = []
        self._owns_tracemalloc = False
        if alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # -- recording -----------------------------------------------------------

    def phase(self, name: str) -> _PhaseSpan:
        """Context manager timing one occurrence of phase ``name``."""
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _PhaseSpan(self, name)
        elif span.busy:  # reentrant same-name nesting: throwaway instance
            return _PhaseSpan(self, name)
        return span

    def add_sample(
        self, name: str, wall_s: float, cpu_s: float, calls: int = 1
    ) -> None:
        """Fold externally measured time into phase ``name``.

        Worker threads of the class-batched J/K path time their own
        chunks (``time.perf_counter`` / ``time.thread_time``) and the
        coordinating thread folds the results in here -- the reusable
        :class:`_PhaseSpan` machinery is deliberately not thread-safe,
        so cross-thread attribution goes through this aggregate-only
        door (no tracer mirroring, no allocation attribution).
        """
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = PhaseStat(name)
        stat.calls += int(calls)
        stat.wall_s += float(wall_s)
        if cpu_s > 0.0:
            stat.cpu_s += float(cpu_s)

    def _enter_alloc(self, span: _PhaseSpan) -> None:
        # bank the running peak on the phase being interrupted, then
        # reset so the nested phase sees only its own allocations
        if self._stack:
            outer = self._stack[-1]
            outer.peak = max(outer.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        span.peak = 0
        self._stack.append(span)

    def _exit_alloc(self, span: _PhaseSpan, stat: PhaseStat) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # exception unwound past nested spans
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()
        peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        stat.alloc_peak_bytes = max(stat.alloc_peak_bytes, int(peak))
        tracemalloc.reset_peak()

    def _mirror(self, name: str, wall: float) -> None:
        from repro.obs.ambient import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            end = time.perf_counter()
            tracer.host_span_at(name, end - wall, end, cat="phase")

    def close(self) -> None:
        """Release resources (stops tracemalloc if this profiler started it)."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False

    # -- views ---------------------------------------------------------------

    def phases(self) -> list[PhaseStat]:
        """Stats sorted by total wall time, descending."""
        return sorted(self.stats.values(), key=lambda s: -s.wall_s)

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.phases()]

    def table(self) -> str:
        """Fixed-width console rendering of the phase table."""
        lines = [
            f"{'phase':<18} {'calls':>7} {'wall [s]':>10} {'cpu [s]':>10} "
            f"{'max [s]':>10} {'peak alloc':>11}",
        ]
        for s in self.phases():
            alloc = _fmt_bytes(s.alloc_peak_bytes) if s.alloc_peak_bytes else "-"
            lines.append(
                f"{s.name:<18} {s.calls:>7} {s.wall_s:>10.4f} "
                f"{s.cpu_s:>10.4f} {s.max_wall_s:>10.4f} {alloc:>11}"
            )
        if len(lines) == 1:
            lines.append("(no phases recorded)")
        return "\n".join(lines)

    def export_metrics(self, registry=None) -> None:
        """Dump the accumulated stats as ``repro_phase_*`` metrics."""
        from repro.obs.ambient import get_metrics

        reg = registry if registry is not None else get_metrics()
        wall = reg.counter(
            "repro_phase_wall_seconds_total",
            "inclusive wall time per profiled phase", labelnames=("phase",),
        )
        cpu = reg.counter(
            "repro_phase_cpu_seconds_total",
            "inclusive CPU time per profiled phase", labelnames=("phase",),
        )
        calls = reg.counter(
            "repro_phase_calls_total",
            "occurrences per profiled phase", labelnames=("phase",),
        )
        peak = reg.gauge(
            "repro_phase_alloc_peak_bytes",
            "peak tracemalloc bytes while the phase was innermost",
            labelnames=("phase",),
        )
        for s in self.stats.values():
            wall.inc(s.wall_s, phase=s.name)
            cpu.inc(s.cpu_s, phase=s.name)
            calls.inc(s.calls, phase=s.name)
            if s.alloc_peak_bytes:
                peak.set(s.alloc_peak_bytes, phase=s.name)


class _NullPhaseSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullPhaseSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_PHASE_SPAN = _NullPhaseSpan()


class NullProfiler(PhaseProfiler):
    """Free-of-charge profiler: every probe is a no-op."""

    enabled = False

    def __init__(self):  # noqa: D401 - no tracemalloc, no state
        self.stats = {}
        self.alloc = False
        self._spans = {}
        self._stack = []
        self._owns_tracemalloc = False

    def phase(self, name: str):  # type: ignore[override]
        return _NULL_PHASE_SPAN

    def add_sample(
        self, name: str, wall_s: float, cpu_s: float, calls: int = 1
    ) -> None:
        pass

    def export_metrics(self, registry=None) -> None:
        pass


#: the shared disabled profiler; ``get_profiler()`` returns it by default
NULL_PROFILER = NullProfiler()

# ---------------------------------------------------------------------------
# cProfile hotspot capture (opt-in: real profiling overhead)
# ---------------------------------------------------------------------------


@dataclass
class Hotspot:
    """One row of the top-N cumulative-time table."""

    func: str
    file: str
    line: int
    ncalls: int
    tottime: float
    cumtime: float

    @property
    def where(self) -> str:
        if self.file in ("~", ""):
            return self.func  # built-ins carry no file
        return f"{self.file}:{self.line}:{self.func}"

    def to_json(self) -> dict:
        return {
            "func": self.func,
            "file": self.file,
            "line": self.line,
            "ncalls": self.ncalls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }


@dataclass
class HotspotProfile:
    """Result of one :func:`profile_hotspots` capture."""

    hotspots: list[Hotspot] = field(default_factory=list)
    total_calls: int = 0
    total_time: float = 0.0

    def to_json(self) -> dict:
        return {
            "total_calls": self.total_calls,
            "total_time": self.total_time,
            "hotspots": [h.to_json() for h in self.hotspots],
        }


def _shorten(path: str) -> str:
    """Trim a source path to its package-relative tail."""
    for marker in ("/site-packages/", "/src/"):
        if marker in path:
            return path.split(marker, 1)[1]
    parts = path.rsplit("/", 3)
    return "/".join(parts[-2:]) if len(parts) > 2 else path


def extract_hotspots(prof: cProfile.Profile, top: int = 15) -> HotspotProfile:
    """Top-``top`` functions by cumulative time from a cProfile run."""
    st = pstats.Stats(prof)
    rows = []
    for (file, line, func), (cc, nc, tt, ct, _callers) in st.stats.items():
        rows.append(Hotspot(
            func=func, file=_shorten(file), line=line,
            ncalls=int(nc), tottime=float(tt), cumtime=float(ct),
        ))
    rows.sort(key=lambda h: -h.cumtime)
    return HotspotProfile(
        hotspots=rows[:top],
        total_calls=int(st.total_calls),
        total_time=float(st.total_tt),
    )


def profile_hotspots(
    fn: Callable[[], Any], top: int = 15
) -> tuple[Any, HotspotProfile]:
    """Run ``fn`` under cProfile; return ``(fn(), top-N hotspot table)``."""
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    return result, extract_hotspots(prof, top)


def hotspot_text(profile: HotspotProfile) -> str:
    """Fixed-width console rendering of the hotspot table."""
    lines = [
        f"hotspots: {profile.total_calls} calls, "
        f"{profile.total_time:.3f} s total (cProfile, by cumulative time)",
        f"{'cum [s]':>9} {'tot [s]':>9} {'calls':>9}  location",
    ]
    for h in profile.hotspots:
        lines.append(
            f"{h.cumtime:>9.4f} {h.tottime:>9.4f} {h.ncalls:>9}  {h.where}"
        )
    return "\n".join(lines)


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "kB", "MB", "GB"):
        if abs(n) < 1000.0 or unit == "GB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.2f} {unit}"
        n /= 1000.0
    return f"{n:.2f} GB"
