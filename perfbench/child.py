"""One round of one workload, run in a fresh process.

The parent (``perfbench.harness``) starts ``python3 -m perfbench --child``
with the checkout's ``src`` on ``PYTHONPATH`` and every thread pool pinned
to one thread.  The child sets up once, runs the timed body once, checks
the outputs untimed, and prints one JSON line.

Set-up and body are each timed by a :class:`HostClock`: the workload calls
``ctx.tick()`` between its steps, every tick runs a short fixed probe of the
host's speed, and each stretch of wall time is scaled by the probes around
it.  On this shared host the same code runs 1.0x to 2.0x its best time and
drifts by 25 % between two sets of runs; the raw walls are reported beside
the scaled ones.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from perfbench import layers
from perfbench.spans import SpanRecorder
from perfbench.workloads import GOLDENS, WORKLOADS, Ctx

#: what one probe takes on this host at its usual speed; only sets the
#: scale, so that scaled seconds read like seconds here
PROBE_REF_S = 0.016
#: do not probe more often than this: a tick inside a shorter stretch is
#: skipped and the stretch goes on
MIN_SEGMENT_S = 0.15


class Probe:
    """A fixed mix of BLAS, memory-bound numpy and pure-Python work.

    It shares no code with the program under test, so a change to the
    program cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((160, 160))
        self.idx = rng.integers(0, 200_000, 400_000)
        self.w = rng.random(200_000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(12):
            self.a @ self.a
        self.np.bincount(self.idx, weights=self.w[self.idx],
                         minlength=200_000)
        n = 0
        for i in range(300_000):
            n += i
        return time.perf_counter() - t0


class HostClock:
    """Wall time of a phase, in stretches scaled by host-speed probes.

    A stretch that took ``w`` seconds between probes ``p0`` and ``p1``
    counts ``w * PROBE_REF_S / mean(p0, p1)`` scaled seconds.  Probe time
    belongs to neither ``wall`` nor ``scaled``.
    """

    def __init__(self, start: float, probe, rec: SpanRecorder,
                 last_probe: float | None = None):
        self.wall = 0.0
        self.scaled = 0.0
        self.probes: list[float] = []
        self._probe = probe
        self._rec = rec
        self._last = last_probe
        self._t = start

    def tick(self, force: bool = False) -> None:
        stretch = time.monotonic() - self._t
        if not force and stretch < MIN_SEGMENT_S:
            return
        with self._rec.span("host.probe"):
            after = self._probe()
        before = self._last if self._last is not None else after
        self.wall += stretch
        self.scaled += stretch * PROBE_REF_S / ((before + after) / 2)
        self.probes.append(after)
        self._last = after
        self._t = time.monotonic()


def load_golden(workload: str, smoke: bool) -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)["smoke" if smoke else "full"][workload]


def run_round(workload: str, seed: int, smoke: bool, traced: bool,
              regen: bool, t_spawn: float, workdir: Path) -> dict:
    wl = WORKLOADS[workload]
    rec = SpanRecorder(workload)
    probe = Probe()
    workdir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir))
    ctx = Ctx(seed=seed, smoke=smoke, tmp=tmp,
              golden=None if regen else load_golden(workload, smoke))
    try:
        with layers.instrument(rec) if traced else nullcontext():
            setup = HostClock(t_spawn, probe, rec)
            ctx.tick = setup.tick
            with rec.span(layers.SETUP):
                state = wl.setup(ctx)
                setup.tick(force=True)
            body = HostClock(time.monotonic(), probe, rec, setup.probes[-1])
            ctx.tick = body.tick
            cpu0, t0 = time.process_time(), time.monotonic()
            with rec.span(layers.BODY):
                out = wl.body(ctx, state)
                body.tick(force=True)
            cpu_share = (time.process_time() - cpu0) / (time.monotonic() - t0)
            ctx.tick = lambda: None
            with rec.span(layers.VERIFY):
                checks, facts = wl.verify(ctx, state, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "workload": workload,
        "setup_s": setup.scaled,
        "body_s": body.scaled,
        "setup_wall_s": setup.wall,
        "body_wall_s": body.wall,
        "probe_s": statistics.median(setup.probes + body.probes),
        "cpu_share": cpu_share,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": {name: bool(ok) for name, ok in checks.items()},
    }
    if regen:
        result["golden"] = facts["golden"]
    if traced:
        result["layers"] = layers.layer_metrics(rec, facts, body.wall)
        trace_path = workdir / f"trace_{workload}_seed{seed}.json"
        rec.write_chrome(trace_path)
        result["trace_file"] = str(trace_path)
        result["spans"] = len(rec.spans)
    return result


def main(args) -> int:
    result = run_round(
        args.child, args.seed, args.smoke, bool(args.trace),
        args.regen_goldens, args.t_spawn, Path(args.workdir),
    )
    print(json.dumps(result))
    return 0
