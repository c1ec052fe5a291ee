"""Execution-timeline recording and rendering for scheduler runs.

Wraps :func:`repro.fock.stealing.run_work_stealing` with a private
:class:`~repro.obs.Tracer` so every executed task and steal becomes a
timestamped span with *exact* scheduler times, then renders a text
Gantt chart -- the tool one actually wants when debugging load balance
("who idled, who got robbed, when").  For Perfetto-grade traces of the
same run, pass a tracer to ``run_work_stealing`` directly (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fock.stealing import StealingOutcome, run_work_stealing
from repro.obs import Tracer


@dataclass(frozen=True)
class Span:
    """One contiguous interval of activity on a process."""

    proc: int
    start: float
    end: float
    kind: str  # "work" | "steal" | "comm" | "blocked"
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    spans: list[Span] = field(default_factory=list)

    def for_proc(self, proc: int) -> list[Span]:
        return sorted(
            (s for s in self.spans if s.proc == proc), key=lambda s: s.start
        )

    @property
    def makespan(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def busy_fraction(self, proc: int) -> float:
        """Fraction of the makespan this process spent working."""
        total = self.makespan
        if total <= 0:
            return 1.0
        busy = sum(s.duration for s in self.for_proc(proc) if s.kind == "work")
        return busy / total

    #: render characters per span kind ('.' marks idle gaps)
    _CHARS = {"work": "#", "steal": "$", "comm": "%", "blocked": "~"}

    def render(self, width: int = 72) -> str:
        """Text Gantt chart: '#' working, '$' stealing, '%' communicating,
        '~' blocked waiting, '.' idle."""
        total = self.makespan
        nproc = max((s.proc for s in self.spans), default=-1) + 1
        if total <= 0 or nproc == 0:
            return "(empty timeline)"
        rows = []
        for p in range(nproc):
            row = ["."] * width
            for s in self.for_proc(p):
                c0 = int(s.start / total * (width - 1))
                c1 = max(c0, int(s.end / total * (width - 1)))
                ch = self._CHARS.get(s.kind, "?")
                for c in range(c0, c1 + 1):
                    if row[c] != "#":  # work wins over steal marks
                        row[c] = ch
            rows.append(f"p{p:<3d} |{''.join(row)}|")
        rows.append(f"     0{' ' * (width - len(str(round(total, 2))) - 1)}"
                    f"{round(total, 2)}s")
        return "\n".join(rows)


def timeline_from_tracer(tracer: Tracer) -> Timeline:
    """Convert a tracer's virtual scheduler events into a :class:`Timeline`.

    Per-task virtual spans (``cat="task"``) become work spans with the
    scheduler's exact start/end times; ``steal`` instants become
    zero-duration steal marks on the thief's row; ``steal_copy`` comm
    spans (the thief paying for the victim's D-buffer copy) become
    duration-bearing steal spans; ``prefetch`` / ``flush`` comm spans
    become comm spans; ``blocked`` spans (a done rank parked until a
    death wakes it) keep their own kind and render as ``~``.
    """
    spans = [
        Span(tid, ts, ts + dur, "work", str(args.get("task", "")))
        for _, _, _, _, tid, ts, dur, args in tracer.rows("X", cat="task")
    ]
    spans += [
        Span(tid, ts, ts, "steal", f"from p{args['victim']}")
        for _, _, _, _, tid, ts, _, args in tracer.rows("i", names=("steal",))
    ]
    for _, name, _, _, tid, ts, dur, args in tracer.rows("X", cat="comm"):
        if name == "steal_copy":
            kind, detail = "steal", f"copy from p{args.get('victim', '?')}"
        else:
            kind, detail = "comm", name
        spans.append(Span(tid, ts, ts + dur, kind, detail))
    spans += [
        Span(tid, ts, ts + dur, "blocked", "await orphans")
        for _, _, _, _, tid, ts, dur, _ in tracer.rows(
            "X", cat="sched", names=("blocked",))
    ]
    return Timeline(spans)


def traced_work_stealing(
    queues: list[list[Any]],
    cost_of: Callable[[Any], float],
    grid: tuple[int, int],
    **kwargs,
) -> tuple[StealingOutcome, Timeline]:
    """Run the work-stealing simulation while recording a Timeline.

    The scheduler itself records every executed task as a virtual span
    (including idle gaps between a steal and the stolen batch's start),
    so the Timeline is cycle-accurate -- unlike the pre-``repro.obs``
    version of this helper, which replayed committed tasks back-to-back
    from t=0 and lost the gaps.
    """
    tracer = kwargs.pop("tracer", None) or Tracer("work-stealing")
    outcome = run_work_stealing(queues, cost_of, grid, tracer=tracer, **kwargs)
    return outcome, timeline_from_tracer(tracer)
