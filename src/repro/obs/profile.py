"""Phase profiler: wall + CPU + allocation attribution for named phases.

The ROADMAP's "next 10x on the ERI/Fock hot path" starts from the same
place every serious restructure does (the Xeon Phi HF work restructured
its loops *from hotspot profiles*): knowing where the Python wall-clock,
CPU time, and allocations actually go.  The pipeline's named phases --

``one_electron``, ``pairdata_build``, ``schwarz_screening``, ``class_plan``,
``eri_quartets``, ``jk_contraction``, ``store_attach``, ``store_fill``, ``diagonalize``/``purify``,
``diis``, ``fock_build``, ``sim_event_loop`` and the probes ``guard``
and ``integrity``

-- are each wired once, as ``with repro.obs.phase(name):``.  That one
probe times the region once and records it into the current session:
into this module's :class:`PhaseProfiler` when one is installed, and as
one host span (``cat="phase"`` unless the call site names another) when
a tracer is.  The profiler is an accumulator only: per phase, call
count, inclusive wall seconds (``time.perf_counter``), inclusive CPU
seconds, and (opt-in, ``alloc=True``) the peak ``tracemalloc``
allocation observed while the phase was innermost.  CPU is
``time.process_time`` on the main thread (so a phase that waits on
helper threads counts their CPU) and ``time.thread_time`` on any other
thread; :meth:`PhaseProfiler.record` is safe from any thread.
Allocation attribution follows the main thread only.

Like the tracer and the metrics registry, the profiler is an attribute
of the current ``repro.obs.session``, which :func:`repro.obs.phase`
records into.  With neither a profiler nor a tracer
installed a probe is one attribute check returning a shared no-op, so
leaving the instrumentation in the hot path costs essentially nothing
when disabled (and <= 5% when enabled without ``alloc``, gated by
``benchmarks/test_bench_profiler.py`` on a whole SCF).

The opt-in **hotspot table** (:func:`profile_hotspots`) runs a callable
under :mod:`cProfile` and extracts the top-N functions by cumulative
time -- rendered as text by :func:`hotspot_text` (``repro perf
profile``) and as HTML in the run-ledger report.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

#: the canonical phase taxonomy (documented in docs/OBSERVABILITY.md);
#: free-form names are allowed, these are the ones the pipeline emits
PHASE_PAIRDATA = "pairdata_build"
#: S, T and V (:mod:`repro.integrals.oneelec`), one pass per call
PHASE_ONE_ELECTRON = "one_electron"
PHASE_SCHWARZ = "schwarz_screening"
PHASE_CLASS_PLAN = "class_plan"
PHASE_ERI = "eri_quartets"
PHASE_JK = "jk_contraction"
#: a store fill's slot layout, its flushes' slot writes, the fold and ``finalize``
PHASE_STORE_FILL = "store_fill"
#: attaching an integral store: its ``import scipy.sparse``, then opening it
PHASE_STORE_ATTACH = "store_attach"
PHASE_DIAG = "diagonalize"
PHASE_PURIFY = "purify"
PHASE_DIIS = "diis"
PHASE_FOCK = "fock_build"
PHASE_SIM_LOOP = "sim_event_loop"
#: the probes' phases: never nested in one another, so their walls add
#: up to what the guard / integrity layer cost a run (:meth:`PhaseProfiler.wall`)
PHASE_GUARD = "guard"
PHASE_INTEGRITY = "integrity"


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


class PhaseProfiler:
    """Collects per-phase wall/CPU/allocation statistics: what every
    ``repro.obs.phase`` probe of its session records into.

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
        self._lock = threading.Lock()
        #: the open probes attributing allocations, innermost last
        self._stack: list = []
        self._owns_tracemalloc = False
        if alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # -- recording -----------------------------------------------------------

    def record(self, probe, wall: float, cpu: float) -> None:
        """Fold one finished ``repro.obs.phase`` occurrence into the stat
        of ``probe.name``; safe to call from any thread."""
        with self._lock:
            stat = self.stats.get(probe.name)
            if stat is None:
                stat = self.stats[probe.name] = PhaseStat(probe.name)
            stat.calls += 1
            stat.wall_s += wall
            if cpu > 0.0:
                stat.cpu_s += cpu
            if wall > stat.max_wall_s:
                stat.max_wall_s = wall
        if probe in self._stack:
            self._exit_alloc(probe, stat)

    def enter_alloc(self, probe) -> None:
        """Start attributing allocations to ``probe`` (main thread only:
        the tracemalloc peak is process-wide)."""
        # bank the running peak on the phase being interrupted, then
        # reset so the nested phase sees only its own allocations
        if self._stack:
            outer = self._stack[-1]
            outer.peak = max(outer.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        probe.peak = 0
        self._stack.append(probe)

    def _exit_alloc(self, probe, stat: PhaseStat) -> None:
        if self._stack[-1] is probe:
            self._stack.pop()
        else:  # exception unwound past nested probes
            while self._stack[-1] is not probe:
                self._stack.pop()
            self._stack.pop()
        peak = max(probe.peak, tracemalloc.get_traced_memory()[1])
        stat.alloc_peak_bytes = max(stat.alloc_peak_bytes, int(peak))
        tracemalloc.reset_peak()

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

    def wall(self, *names: str) -> float:
        """Summed wall seconds of the named phases (0 for one never seen)."""
        return sum(self.stats[n].wall_s for n in names if n in self.stats)

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


class NullProfiler(PhaseProfiler):
    """Free-of-charge profiler: records nothing."""

    enabled = False

    def record(self, probe, wall: float, cpu: float) -> None:
        pass

    def export_metrics(self, registry=None) -> None:
        pass


#: the shared disabled profiler; the default session holds it
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
