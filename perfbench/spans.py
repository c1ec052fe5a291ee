"""In-memory spans recorded from outside the program.

The traced pass wraps public callables of ``repro`` (module-level names
as imported into their caller, class attributes) so that every call
records a span; nothing under ``src/`` is edited.  Spans live in a list
until the pass ends and are then written as Chrome-trace JSON.

The benchmark is single-threaded (``jk_threads=1``), so spans nest
strictly and one stack is enough.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in ``SpanRecorder.spans`` (-1 for a root)
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans and counts; answers self-time questions."""

    def __init__(self, workload: str = ""):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A callable that runs ``fn`` inside a span called ``name``."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_count(self, name: str, fn):
        """Count-only wrapper for callables too hot to time (> 1e5 calls)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- queries -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def under(self, name: str) -> list[bool]:
        """Per span: does it have an ancestor called ``name``?"""
        flags: list[bool] = []
        for s in self.spans:  # a parent always precedes its children
            flags.append(
                s.parent >= 0
                and (self.spans[s.parent].name == name or flags[s.parent])
            )
        return flags

    def select(self, name: str, under: str | None = None,
               not_under: str | None = None) -> list[int]:
        """Indices of spans called ``name``, filtered by an ancestor's name."""
        inside = self.under(under) if under is not None else None
        outside = self.under(not_under) if not_under is not None else None
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name
            and (inside is None or inside[i])
            and (outside is None or not outside[i])
        ]

    def total(self, *names: str, under: str | None = None,
              not_under: str | None = None) -> float:
        """Summed duration of the named spans (children included)."""
        return sum(
            self.spans[i].duration
            for n in names for i in self.select(n, under, not_under)
        )

    def total_self(self, *names: str, under: str | None = None,
                   not_under: str | None = None) -> float:
        self_t = self.self_times()
        return sum(
            self_t[i] for n in names for i in self.select(n, under, not_under)
        )

    def durations(self, name: str, under: str | None = None) -> list[float]:
        return [self.spans[i].duration for i in self.select(name, under)]

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event document; ``args`` carry parent and workload."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": {"id": i, "parent": s.parent,
                         "workload": self.workload},
            }
            for i, s in enumerate(self.spans)
        ]
        meta = [{"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": f"perfbench {self.workload}"}}]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms",
                "otherData": {"counts": dict(self.counts)}}

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


@contextmanager
def patched(targets):
    """Replace attributes for the duration of the block, then restore.

    ``targets`` is a list of ``(owner, attr, make)`` where ``owner`` is a
    module or class and ``make(original)`` returns the replacement.
    ``staticmethod``/``classmethod`` descriptors are unwrapped and
    re-wrapped; an attribute the owner only inherits is deleted again on
    exit.  Every original is restored even when the body raises.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            raw = vars(owner).get(attr, _MISSING)
            current = raw if raw is not _MISSING else getattr(owner, attr)
            if isinstance(current, (staticmethod, classmethod)):
                new = type(current)(make(current.__func__))
            else:
                new = make(current)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
