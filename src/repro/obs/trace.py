"""Dual-clock tracing with Perfetto (Chrome trace-event) export.

The reproduction runs on two clocks at once: the *host* wall clock
(real Python execution: SCF iterations, numeric ERI batches, benchmark
setup) and the *virtual* per-process clock that :class:`~repro.runtime.
network.CommStats` advances for the simulated Global-Arrays machine.
:class:`Tracer` records both kinds of span in one event stream:

* host spans are nested context managers stamped with
  ``time.perf_counter()`` relative to the tracer's epoch;
* virtual spans carry explicit start/end times in simulated seconds and
  are attached to one trace "thread" per simulated process, so a
  Perfetto timeline shows every rank as its own row.

Exports: ``write_chrome(path)`` produces Chrome trace-event JSON that
Perfetto (https://ui.perfetto.dev) opens directly; ``write_jsonl(path)``
streams the raw span records one JSON object per line.  ``write(path)``
dispatches on the ``.jsonl`` extension.

Instrumentation throughout the package calls :func:`get_tracer`, which
returns the module-level :data:`NULL_TRACER` unless a real tracer has
been installed with :func:`set_tracer` (or the ``tracing`` context
manager) -- the null tracer makes every probe a no-op, so tracing costs
essentially nothing when disabled.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterator

import numpy as np

#: trace-event pid used for host (wall-clock) spans
HOST_PID = 1
#: trace-event pid used for simulated ranks (virtual clock)
SIM_PID = 2
#: events per C-encoder call in :meth:`Tracer.write_chrome`
_EXPORT_CHUNK = 4096


def _coerce(obj: Any) -> Any:
    """JSON fallback for numpy scalars and other oddballs."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


@dataclass
class TraceEvent:
    """One recorded event, times in **seconds** on its clock.

    ``phase`` follows the Chrome trace-event vocabulary: ``"X"`` for a
    complete span (``ts`` + ``dur``), ``"i"`` for an instant.
    """

    phase: str
    name: str
    cat: str
    pid: int
    tid: int
    ts: float
    dur: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def to_chrome(self) -> dict:
        ev = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.phase,
            "pid": self.pid,
            "tid": self.tid,
            "ts": self.ts * 1e6,  # Chrome trace events use microseconds
        }
        if self.phase == "X":
            ev["dur"] = self.dur * 1e6
        if self.phase == "i":
            ev["s"] = "t"  # instant scope: thread
        if self.args:
            ev["args"] = self.args
        return ev

    def to_record(self) -> dict:
        rec = {
            "type": "span" if self.phase == "X" else "instant",
            "clock": "virtual" if self.pid == SIM_PID else "host",
            "name": self.name,
            "cat": self.cat,
            "tid": self.tid,
            "ts": self.ts,
        }
        if self.phase == "X":
            rec["dur"] = self.dur
        if self.args:
            rec["args"] = self.args
        return rec


class _SpanRun:
    """The spans of one :meth:`Tracer.virtual_spans` call, held as columns.

    A traced scheduler run emits one span per executed task; as columns
    they cost one object per batch instead of two per span, and turn
    into :class:`TraceEvent` s only when something reads them.  ``phase``
    / ``pid`` / ``cat`` / ``name`` / ``tid`` read like an event's, so
    filters can skip a whole run without expanding it.
    """

    __slots__ = ("name", "cat", "tid", "ts", "dur", "columns")
    phase = "X"
    pid = SIM_PID

    def __init__(self, name, cat, tid, ts, dur, columns):
        self.name, self.cat, self.tid = name, cat, tid
        self.ts, self.dur, self.columns = ts, dur, columns

    def events(self) -> list[TraceEvent]:
        keys = tuple(self.columns)
        rows = zip(*self.columns.values()) if keys else ((),) * len(self.ts)
        return [
            TraceEvent("X", self.name, self.cat, SIM_PID, self.tid, ts, dur,
                       dict(zip(keys, row)))
            for ts, dur, row in zip(self.ts.tolist(), self.dur.tolist(), rows)
        ]


class Tracer:
    """Collects host and virtual spans; thread-safe for host probes."""

    enabled = True

    def __init__(self, name: str = "repro"):
        self.name = name
        #: events and unexpanded span runs, in emission order
        self._log: list[TraceEvent | _SpanRun] = []
        self._runs = 0
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._host_tids: dict[int, int] = {}

    # -- clocks --------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _host_tid(self) -> int:
        ident = threading.get_ident()
        tid = self._host_tids.get(ident)
        if tid is None:
            tid = len(self._host_tids)
            self._host_tids[ident] = tid
        return tid

    def _append(self, ev: TraceEvent) -> None:
        with self._lock:
            self._log.append(ev)

    def _iter_events(self, match=None) -> Iterator[TraceEvent]:
        """Events in emission order; ``match`` drops whole log items
        (single events or span runs) before any run is expanded."""
        for item in self._log:
            if match is None or match(item):
                if type(item) is _SpanRun:
                    yield from item.events()
                else:
                    yield item

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event, in emission order."""
        with self._lock:
            if self._runs:
                self._log, self._runs = list(self._iter_events()), 0
            return self._log

    # -- host (wall-clock) probes -------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "host", **args) -> Iterator[dict]:
        """Record a nested wall-clock span around the ``with`` body.

        Yields the span's ``args`` dict so the body can attach results::

            with tracer.span("fock_build") as sp:
                f = build(...)
                sp["nnz"] = int(np.count_nonzero(f))
        """
        t0 = self._now()
        try:
            yield args
        finally:
            self._append(
                TraceEvent(
                    "X", name, cat, HOST_PID, self._host_tid(), t0,
                    self._now() - t0, args,
                )
            )

    def instant(self, name: str, cat: str = "host", **args) -> None:
        """Record a zero-duration wall-clock marker."""
        self._append(
            TraceEvent("i", name, cat, HOST_PID, self._host_tid(),
                       self._now(), 0.0, args)
        )

    def host_span_at(
        self, name: str, start: float, end: float, cat: str = "host", **args
    ) -> None:
        """Record a completed host span from ``time.perf_counter()`` stamps.

        For instrumentation that measures its own timing (the phase
        profiler) and only reports the span after the fact; ``start`` and
        ``end`` are absolute ``perf_counter`` values.
        """
        self._append(
            TraceEvent(
                "X", name, cat, HOST_PID, self._host_tid(),
                start - self._epoch, max(end - start, 0.0), args,
            )
        )

    # -- virtual (simulated-clock) probes -----------------------------------

    def virtual_span(
        self, name: str, proc: int, start: float, end: float,
        cat: str = "sim", **args,
    ) -> None:
        """Record a span on simulated rank ``proc``; times in virtual seconds."""
        self._append(
            TraceEvent("X", name, cat, SIM_PID, proc, start,
                       max(end - start, 0.0), args)
        )

    def virtual_spans(
        self, name: str, proc: int, starts, ends, cat: str = "sim", **columns
    ) -> None:
        """Bulk :meth:`virtual_span`: one span per ``(start, end)`` pair.

        ``starts``/``ends`` are arrays of virtual seconds and every
        keyword is a sequence holding that argument's value for each
        span.  :attr:`events` shows them in order, equal field for field
        to as many single calls; until it is read they stay one columnar
        record.
        """
        starts = np.asarray(starts, dtype=float)
        durs = np.maximum(np.asarray(ends, dtype=float) - starts, 0.0)
        run = _SpanRun(name, cat, proc, starts, durs, columns)
        with self._lock:
            self._log.append(run)
            self._runs += 1

    def virtual_instant(
        self, name: str, proc: int, t: float, cat: str = "sim", **args
    ) -> None:
        """Record an instant on simulated rank ``proc`` at virtual time ``t``."""
        self._append(TraceEvent("i", name, cat, SIM_PID, proc, t, 0.0, args))

    # -- queries -------------------------------------------------------------

    def spans(
        self, cat: str | None = None, pid: int | None = None, names=None
    ) -> list[TraceEvent]:
        """Complete spans, optionally of one category / pid / set of names."""
        return list(self._iter_events(
            lambda item: item.phase == "X"
            and (cat is None or item.cat == cat)
            and (pid is None or item.pid == pid)
            and (names is None or item.name in names)
        ))

    def instants(self, name: str | None = None) -> list[TraceEvent]:
        return [
            ev for ev in self._log
            if ev.phase == "i" and (name is None or ev.name == name)
        ]

    # -- export --------------------------------------------------------------

    def _chrome_meta(self) -> list[dict]:
        """Process/thread naming records that head the Chrome document."""
        meta: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": HOST_PID,
             "args": {"name": f"{self.name} host (wall clock)"}},
            {"name": "process_name", "ph": "M", "pid": SIM_PID,
             "args": {"name": f"{self.name} simulated ranks (virtual clock)"}},
        ]
        sim_tids = sorted({ev.tid for ev in self._log if ev.pid == SIM_PID})
        for tid in sim_tids:
            meta.append(
                {"name": "thread_name", "ph": "M", "pid": SIM_PID, "tid": tid,
                 "args": {"name": f"rank {tid}"}}
            )
        for _, tid in sorted(self._host_tids.items(), key=lambda kv: kv[1]):
            meta.append(
                {"name": "thread_name", "ph": "M", "pid": HOST_PID, "tid": tid,
                 "args": {"name": f"thread {tid}"}}
            )
        return meta

    def chrome_trace(self) -> dict:
        """The full Chrome trace-event document (Perfetto-loadable)."""
        return {
            "traceEvents": self._chrome_meta()
            + [ev.to_chrome() for ev in self.events],
            "displayTimeUnit": "ms",
        }

    def write_chrome(self, path: str) -> None:
        """Stream :meth:`chrome_trace` to ``path``, a bounded chunk at a time.

        ``json.dump`` always takes CPython's pure-Python incremental
        encoder; ``JSONEncoder.encode`` takes the C one.  Encoding
        ``_EXPORT_CHUNK`` events per call keeps the C speed without ever
        holding the whole document as one string, and span runs are
        expanded one at a time.
        """
        encode = json.JSONEncoder(default=_coerce).encode
        with open(path, "w") as fh:
            # the metadata records are never empty, so every chunk after
            # them is preceded by a separator
            fh.write('{"traceEvents": [' + encode(self._chrome_meta())[1:-1])
            events = self._iter_events()
            while chunk := [
                ev.to_chrome() for ev in islice(events, _EXPORT_CHUNK)
            ]:
                fh.write(", " + encode(chunk)[1:-1])
            fh.write('], "displayTimeUnit": "ms"}')

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev.to_record(), default=_coerce) + "\n")

    def write(self, path: str) -> None:
        """Write ``.jsonl`` span records or (default) Chrome trace JSON."""
        if str(path).endswith(".jsonl"):
            self.write_jsonl(path)
        else:
            self.write_chrome(path)


class _NullArgs:
    """Write-only sink yielded by the null tracer's spans."""

    __slots__ = ()

    def __setitem__(self, key, value) -> None:
        pass

    def update(self, *a, **kw) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> _NullArgs:
        return _NULL_ARGS

    def __exit__(self, *exc) -> bool:
        return False


_NULL_ARGS = _NullArgs()
_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Free-of-charge tracer: every probe is a no-op."""

    enabled = False

    def span(self, name: str, cat: str = "host", **args):  # type: ignore[override]
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "host", **args) -> None:
        pass

    def host_span_at(self, name, start, end, cat="host", **args) -> None:
        pass

    def virtual_span(self, name, proc, start, end, cat="sim", **args) -> None:
        pass

    def virtual_spans(self, name, proc, starts, ends, cat="sim", **columns) -> None:
        pass

    def virtual_instant(self, name, proc, t, cat="sim", **args) -> None:
        pass


#: the shared disabled tracer; ``get_tracer()`` returns it by default
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide active tracer (the no-op tracer unless enabled)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (None restores the null tracer); returns the old one."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Activate a tracer for the duration of a ``with`` block."""
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
