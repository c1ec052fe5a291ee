"""The ambient observability session: four instruments, one binding.

Instrumented code never receives a tracer, registry, profiler or ledger
as an argument -- it asks for the current one (:func:`get_tracer`,
:func:`get_metrics`, :func:`get_ledger`; the profiler is reached
through :func:`phase`).  All four are attributes of one
:class:`ObsSession`, and the current session is the only mutable
module-level binding in ``repro.obs``.  The
process starts in a session of null instruments (every probe a no-op)
plus one live :class:`MetricsRegistry`, so leaving the probes in the
hot path costs an attribute read.

:func:`session` is the one way to change what the accessors return::

    with obs.session(tracer=Tracer("run"), trace_path="t.json") as s:
        s.exit_code = work()

It installs the instruments it is given (the others are inherited from
the enclosing session) and, however the block exits, tears down the
ones it installed in one fixed order before restoring the outer
session -- see :func:`session`.

:func:`phase` is the one probe a named region needs: it times the
region once and records it into whichever of the session's profiler
and tracer are installed.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.manifest import NULL_LEDGER, RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.trace import _NULL_SPAN, NULL_TRACER, HostSpan, Tracer


@dataclass
class ObsSession:
    """The instruments package code reports to, plus the run's verdict."""

    tracer: Tracer
    metrics: MetricsRegistry
    profiler: PhaseProfiler
    ledger: RunLedger
    #: what the session's ledger is sealed with; the block sets it, an
    #: escaping exception overrides it with 1
    exit_code: int = field(default=0, init=False)
    #: whether a :func:`phase` probe has anywhere to record
    live: bool = field(init=False)

    def __post_init__(self) -> None:
        self.live = self.tracer.enabled or self.profiler.enabled


_current = ObsSession(NULL_TRACER, MetricsRegistry(), NULL_PROFILER, NULL_LEDGER)


def get_tracer() -> Tracer:
    """The current session's tracer (the no-op tracer unless installed)."""
    return _current.tracer


def get_metrics() -> MetricsRegistry:
    """The current session's metrics registry (always a live one)."""
    return _current.metrics


def get_ledger() -> RunLedger:
    """The current session's run ledger (no-op unless installed)."""
    return _current.ledger


class _Phase(HostSpan):
    """One :func:`phase` occurrence: a host span whose one timing also
    goes to the profiler."""

    __slots__ = ("profiler", "clock", "c0", "peak")

    def __init__(self, sess: ObsSession, name: str, cat: str, attrs: dict):
        super().__init__(sess.tracer, name, cat, attrs)
        self.profiler = sess.profiler

    def __enter__(self) -> dict:
        # the main thread's CPU includes the helper threads it waits on;
        # a worker thread's is its own
        main = threading.current_thread() is threading.main_thread()
        self.clock = time.process_time if main else time.thread_time
        if main and self.profiler.alloc:
            self.profiler.enter_alloc(self)
        self.c0 = self.clock()
        return super().__enter__()

    def __exit__(self, *exc) -> bool:
        # recorded however the body exits: a phase that raised still
        # happened and its cost is still attributable
        wall = time.perf_counter() - self.t0
        self.profiler.record(self, wall, self.clock() - self.c0)
        self._log(wall)
        return False


def phase(name: str, cat: str = "phase", **attrs):
    """Time one occurrence of the named region, once, into the session.

    The profiler (when installed) adds it to the ``name`` phase's
    :class:`~repro.obs.profile.PhaseStat`; the tracer (when installed)
    gets one host span with ``cat`` and ``attrs``.  Yields the attrs
    dict, so the body can attach results (``sp["energy"] = e``).  With
    neither installed this is one attribute check returning a shared
    no-op.
    """
    sess = _current
    if not sess.live:
        return _NULL_SPAN
    return _Phase(sess, name, cat, attrs)


@contextmanager
def session(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    profiler: PhaseProfiler | None = None,
    ledger: RunLedger | None = None,
    trace_path: str | None = None,
    metrics_path: str | None = None,
) -> Iterator[ObsSession]:
    """Install instruments for a ``with`` block, then tear them down.

    An instrument left ``None`` is inherited from the enclosing session,
    so ``session()`` changes nothing and sessions nest.  On every exit
    path -- return, exception, ``KeyboardInterrupt`` -- the instruments
    *this* session installed are finished in one order, each step
    running even if an earlier one raised:

    1. ``profiler.export_metrics`` into the session's registry and
       ``ledger.attach_profile`` (the summary carries the phase table);
    2. ``ledger.close(exit_code)`` -- its ``final`` snapshot reads the
       session's own registry, phase counters included;
    3. ``tracer.write(trace_path)`` and ``metrics.write(metrics_path)``
       where a path was given;
    4. ``profiler.close`` (stops a ``tracemalloc`` it started);
    5. the enclosing session becomes current again.
    """
    global _current
    outer = _current
    sess = _current = ObsSession(
        tracer if tracer is not None else outer.tracer,
        metrics if metrics is not None else outer.metrics,
        profiler if profiler is not None else outer.profiler,
        ledger if ledger is not None else outer.ledger,
    )

    def restore() -> None:
        global _current
        _current = outer

    with ExitStack() as teardown:  # callbacks run last-pushed first
        teardown.callback(restore)
        if profiler is not None:
            teardown.callback(profiler.close)
        if metrics_path:
            teardown.callback(sess.metrics.write, metrics_path)
        if trace_path:
            teardown.callback(sess.tracer.write, trace_path)
        if ledger is not None:
            teardown.callback(lambda: ledger.close(sess.exit_code))
        if profiler is not None:
            teardown.callback(sess.ledger.attach_profile, profiler)
            teardown.callback(profiler.export_metrics, sess.metrics)
        try:
            yield sess
        except BaseException:
            sess.exit_code = 1
            raise
