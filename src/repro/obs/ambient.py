"""The ambient observability session: four instruments, one binding.

Instrumented code never receives a tracer, registry, profiler or ledger
as an argument -- it asks for the current one (:func:`get_tracer`,
:func:`get_metrics`, :func:`get_profiler`, :func:`get_ledger`).  All
four are attributes of one :class:`ObsSession`, and the current session
is the only mutable module-level binding in ``repro.obs``.  The
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
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.manifest import NULL_LEDGER, RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.trace import NULL_TRACER, Tracer


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


_current = ObsSession(NULL_TRACER, MetricsRegistry(), NULL_PROFILER, NULL_LEDGER)


def get_tracer() -> Tracer:
    """The current session's tracer (the no-op tracer unless installed)."""
    return _current.tracer


def get_metrics() -> MetricsRegistry:
    """The current session's metrics registry (always a live one)."""
    return _current.metrics


def get_profiler() -> PhaseProfiler:
    """The current session's phase profiler (no-op unless installed)."""
    return _current.profiler


def get_ledger() -> RunLedger:
    """The current session's run ledger (no-op unless installed)."""
    return _current.ledger


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
