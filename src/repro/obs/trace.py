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

Instrumentation throughout the package calls
:func:`repro.obs.get_tracer`, which returns the module-level
:data:`NULL_TRACER` unless a real tracer has been installed with
``repro.obs.session(tracer=...)`` -- the null tracer makes every probe a
no-op, so tracing costs essentially nothing when disabled.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any, Iterator

import numpy as np

#: trace-event pid used for host (wall-clock) spans
HOST_PID = 1
#: trace-event pid used for simulated ranks (virtual clock)
SIM_PID = 2
#: events per text chunk of :meth:`Tracer.chrome_chunks` (a task run is
#: never split, so a chunk can exceed this by one run)
_EXPORT_CHUNK = 4096
#: stand-in value that shows :meth:`Tracer.chrome_chunks` where the JSON
#: encoder puts an event's values (as is, and as a time in microseconds)
_MARK = 1.2345678987654321e-300
_MARKS = re.compile("|".join(map(re.escape, {repr(_MARK), repr(_MARK * 1e6)})))


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


class _TaskRun:
    """One finished scheduler batch, exactly as the scheduler held it.

    :meth:`Tracer.virtual_task_run` stores the batch start and *views*
    of its cumulative-cost and task arrays as one log row; the span
    edges, durations and ``str(task)`` labels are derived
    (:func:`_task_spans`) each time something reads them.
    """

    __slots__ = ("tid", "t0", "cum", "tasks")
    #: ``(phase, name, cat, pid)`` of every span of a run
    HEAD = ("X", "task", "task", SIM_PID)

    def __init__(self, tid, t0, cum, tasks):
        self.tid, self.t0, self.cum, self.tasks = tid, t0, cum, tasks

    def rows(self) -> list[tuple]:
        ts, dur, labels = _task_spans([self])
        head = self.HEAD + (self.tid,)
        return [
            head + (t, d, {"task": label})
            for t, d, label in zip(ts.tolist(), dur.tolist(), labels)
        ]


def _task_spans(runs: list[_TaskRun]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``(ts, dur, labels)`` of the task spans of ``runs``, run after run.

    Task ``i`` of a run spans ``t0 + cum[i-1]`` (``t0`` for the first) to
    ``t0 + cum[i]``.  Every step is elementwise, so a span reads the same
    whether its run is expanded alone or with a thousand others.
    """
    lens = np.array([len(r.cum) for r in runs])
    t0 = np.array([r.t0 for r in runs], dtype=float)
    ends = np.repeat(t0, lens) + np.concatenate([r.cum for r in runs])
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[(lens.cumsum() - lens)[lens > 0]] = t0[lens > 0]
    # str() of a Python int is several times cheaper than of a NumPy scalar
    labels = list(map(str, chain.from_iterable(
        r.tasks.tolist() if isinstance(r.tasks, np.ndarray) else r.tasks
        for r in runs
    )))
    return starts, np.maximum(ends - starts, 0.0), labels


class HostSpan:
    """One wall-clock span in flight: ``time.perf_counter`` at entry and
    exit, one log row at exit, also when the body raises.  What
    :meth:`Tracer.span` returns, and the base of ``repro.obs.phase``'s
    probe, which hands the same timing to the profiler."""

    __slots__ = ("tracer", "name", "cat", "args", "t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self.tracer, self.name, self.cat, self.args = tracer, name, cat, args

    def __enter__(self) -> dict:
        self.t0 = time.perf_counter()
        return self.args

    def __exit__(self, *exc) -> bool:
        self._log(time.perf_counter() - self.t0)
        return False

    def _log(self, wall: float) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer._log.append(
                ("X", self.name, self.cat, HOST_PID, tracer._host_tid(),
                 self.t0 - tracer._epoch, wall, self.args)
            )


class Tracer:
    """Collects host and virtual spans; thread-safe for host probes.

    The log holds one plain ``(phase, name, cat, pid, tid, ts, dur,
    args)`` tuple per event and one :class:`_TaskRun` per finished
    scheduler batch, in emission order.  A probe is a single append to a
    list that is never rebound, so concurrent probes need no lock;
    :class:`TraceEvent` objects exist only in what the readers return.
    """

    enabled = True

    def __init__(self, name: str = "repro"):
        self.name = name
        self._log: list[tuple | _TaskRun] = []
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
            with self._lock:
                tid = self._host_tids.setdefault(ident, len(self._host_tids))
        return tid

    # -- host (wall-clock) probes -------------------------------------------

    def span(self, name: str, cat: str = "host", **args) -> "HostSpan":
        """Record a nested wall-clock span around the ``with`` body.

        Yields the span's ``args`` dict so the body can attach results::

            with tracer.span("fock_build") as sp:
                f = build(...)
                sp["nnz"] = int(np.count_nonzero(f))
        """
        return HostSpan(self, name, cat, args)

    def instant(self, name: str, cat: str = "host", **args) -> None:
        """Record a zero-duration wall-clock marker."""
        self._log.append(
            ("i", name, cat, HOST_PID, self._host_tid(), self._now(), 0.0, args)
        )

    # -- virtual (simulated-clock) probes -----------------------------------

    def virtual_span(
        self, name: str, proc: int, start: float, end: float,
        cat: str = "sim", **args,
    ) -> None:
        """Record a span on simulated rank ``proc``; times in virtual seconds."""
        self._log.append(
            ("X", name, cat, SIM_PID, proc, start, max(end - start, 0.0), args)
        )

    def virtual_task_run(self, proc: int, t0: float, cum, tasks) -> None:
        """Record a finished batch of back-to-back tasks on rank ``proc``.

        Task ``i`` ran from ``t0 + cum[i-1]`` (``t0`` for the first) to
        ``t0 + cum[i]``: the same events as one ``virtual_span("task",
        proc, start, end, cat="task", task=str(tasks[i]))`` per task.
        ``cum`` (a float array) and ``tasks`` are kept **by reference**
        and read only when the trace is queried or exported, so the
        caller must never write to them again.
        """
        if len(cum) != len(tasks):
            raise ValueError(f"{len(tasks)} tasks for {len(cum)} costs")
        self._log.append(_TaskRun(proc, t0, cum, tasks))

    def virtual_instant(
        self, name: str, proc: int, t: float, cat: str = "sim", **args
    ) -> None:
        """Record an instant on simulated rank ``proc`` at virtual time ``t``."""
        self._log.append(("i", name, cat, SIM_PID, proc, t, 0.0, args))

    # -- queries -------------------------------------------------------------

    def rows(
        self, phase: str | None = None, cat: str | None = None,
        pid: int | None = None, names=None,
    ) -> Iterator[tuple]:
        """Matching events as plain ``(phase, name, cat, pid, tid, ts, dur,
        args)`` tuples in emission order -- the fields of a
        :class:`TraceEvent` without the object.  A task run that the
        filter rejects is skipped without being expanded."""
        for item in self._log:
            single = type(item) is tuple
            ph, name, c, p = item[:4] if single else item.HEAD
            if (
                (phase is None or ph == phase)
                and (cat is None or c == cat)
                and (pid is None or p == pid)
                and (names is None or name in names)
            ):
                if single:
                    yield item
                else:
                    yield from item.rows()

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event, in emission order (built on each read)."""
        return [TraceEvent(*row) for row in self.rows()]

    def spans(
        self, cat: str | None = None, pid: int | None = None, names=None
    ) -> list[TraceEvent]:
        """Complete spans, optionally of one category / pid / set of names."""
        return [TraceEvent(*row) for row in self.rows("X", cat, pid, names)]

    # -- export --------------------------------------------------------------

    def _chrome_meta(self) -> list[dict]:
        """Process/thread naming records that head the Chrome document."""
        meta: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": HOST_PID,
             "args": {"name": f"{self.name} host (wall clock)"}},
            {"name": "process_name", "ph": "M", "pid": SIM_PID,
             "args": {"name": f"{self.name} simulated ranks (virtual clock)"}},
        ]
        sim_tids = sorted({
            item.tid if type(item) is _TaskRun else item[4]
            for item in self._log
            if type(item) is _TaskRun or item[3] == SIM_PID
        })
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

    def chrome_chunks(self) -> Iterator[str]:
        """:meth:`chrome_trace` as JSON text, a bounded chunk at a time.

        The chunks concatenate to exactly ``json.dumps(chrome_trace(),
        default=_coerce)``, written straight from the log a column at a
        time: the events of a chunk that share ``(phase, name, cat, pid,
        *argument keys)`` share the literal text around their values,
        and a column of values whose types are all exactly ``str`` /
        ``int`` / finite ``float`` is converted by the JSON string
        escaper / ``int.__repr__`` / ``float.__repr__`` -- the calls the
        C encoder itself makes for those.  Everything else goes through
        that encoder with the same ``_coerce`` hook: any other value
        (NumPy scalars, bools, ``None``, non-finite floats, containers)
        on its own, an event whose name, category or argument keys are
        not ``str`` whole.  The task runs of a chunk are expanded
        together.
        """
        encode = json.JSONEncoder(default=_coerce).encode
        templates: dict[tuple, list[str] | None] = {}

        def value(v) -> str:
            t = type(v)
            if t is float:
                return float.__repr__(v) if isfinite(v) else encode(v)
            if t is int:
                return int.__repr__(v)
            return _quote(v) if t is str else encode(v)

        def values(col) -> Iterator[str]:
            """:func:`value` of a whole column, in C when it is uniform."""
            kinds = set(map(type, col))
            if kinds == {float} and isfinite(sum(col)):
                return map(float.__repr__, col)
            if kinds == {int}:
                return map(int.__repr__, col)
            return map(_quote if kinds == {str} else value, col)

        def template(shape: tuple) -> list[str] | None:
            """The literal text around the values of such events, cut out
            of what the encoder writes for one whose values are all
            ``_MARK``; None if the encoder must write them whole."""
            if shape not in templates:
                ph, name, cat, pid, *keys = shape
                text = None
                if all(type(s) is str for s in (name, cat, *keys)):
                    sample = TraceEvent(ph, name, cat, pid, _MARK, _MARK, _MARK,
                                        dict.fromkeys(keys, _MARK))
                    text = _MARKS.split(", " + encode(sample.to_chrome()))
                    # tid, ts, dur of a span, args -- unless a name or a
                    # key happens to spell the mark
                    if len(text) != 3 + (ph == "X") + len(keys):
                        text = None
                templates[shape] = text
            return templates[shape]

        def filled(text: list[str], cols: list) -> Iterator[tuple]:
            """Per event, the template's literals with a value between
            every two: joined, they are the event's JSON."""
            slots: list = []
            for literal, col in zip(text, cols):
                slots += repeat(literal), values(col)
            return zip(*slots, repeat(text[-1]))

        def chunk(window: list) -> str:
            texts: list = [None] * len(window)
            shapes: dict[tuple, list[int]] = {}
            runs = []
            for i, item in enumerate(window):
                if type(item) is tuple:
                    shapes.setdefault(item[:4] + tuple(item[7]), []).append(i)
                else:
                    runs.append(i)
            for shape, where in shapes.items():
                rows = [window[i] for i in where]
                text = template(shape)
                if text is None:
                    done = [", " + encode(TraceEvent(*row).to_chrome())
                            for row in rows]
                else:
                    _, _, _, _, tids, ts, dur, args = zip(*rows)
                    cols = [tids, [t * 1e6 for t in ts]]
                    if shape[0] == "X":
                        cols.append([d * 1e6 for d in dur])
                    cols += zip(*map(dict.values, args))
                    done = map("".join, filled(text, cols))
                for i, event in zip(where, done):
                    texts[i] = event
            if runs:
                tasks = [window[i] for i in runs]
                ts, dur, labels = _task_spans(tasks)
                tids = list(chain.from_iterable(
                    repeat(r.tid, len(r.cum)) for r in tasks))
                spans = filled(template(_TaskRun.HEAD + ("task",)), [
                    tids, (ts * 1e6).tolist(), (dur * 1e6).tolist(), labels])
                for i, r in zip(runs, tasks):
                    texts[i] = "".join(
                        chain.from_iterable(islice(spans, len(r.cum))))
            return "".join(texts)

        # the metadata records are never empty, so every event's text
        # starts with a separator
        yield '{"traceEvents": [' + encode(self._chrome_meta())[1:-1]
        window, nevents = [], 0
        for item in self._log:
            window.append(item)
            nevents += 1 if type(item) is tuple else len(item.cum)
            if nevents >= _EXPORT_CHUNK:
                yield chunk(window)
                window, nevents = [], 0
        yield chunk(window) + '], "displayTimeUnit": "ms"}'

    def write_chrome(self, path: str) -> None:
        """Stream :meth:`chrome_chunks` to ``path``: the document never
        exists as one string."""
        with open(path, "w") as fh:
            fh.writelines(self.chrome_chunks())

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for row in self.rows():
                rec = TraceEvent(*row).to_record()
                fh.write(json.dumps(rec, default=_coerce) + "\n")

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

    def virtual_span(self, name, proc, start, end, cat="sim", **args) -> None:
        pass

    def virtual_task_run(self, proc, t0, cum, tasks) -> None:
        pass

    def virtual_instant(self, name, proc, t, cat="sim", **args) -> None:
        pass


#: the shared disabled tracer; ``get_tracer()`` returns it by default
NULL_TRACER = NullTracer()
