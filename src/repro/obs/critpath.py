"""Critical-path analyzer and what-if projector for simulated Fock builds.

Consumes the raw per-run accounting a simulation deposits into a
``SimCapture`` (see :mod:`repro.fock.simulate`; this module deliberately
duck-types the capture so :mod:`repro.obs` never imports
:mod:`repro.fock`) and answers the three questions the totals-only
observability stack cannot:

1. **Where did each rank's time go?**  An exact per-rank decomposition
   into compute / comm-by-channel / steal-copy / idle-blocked segments
   that sums to the rank's end time -- an invariant in the style of
   :meth:`~repro.obs.flight.FlightRecorder.check_against`, enforced to
   1e-9 on fault-free runs (fault injection legitimately introduces
   message-delay slack, which is reported, not hidden).

2. **Which chain of segments bounds the makespan?**  Each rank's chain
   is the scheduler's own record of its schedule (no trace is read, so
   an untraced run has one too).  The critical path is walked backwards
   from the slowest rank; a ``blocked`` segment (a done rank parked
   until a death wakes it to adopt orphans -- the only cross-rank start
   dependency the scheduler has) hops the walk to the chain of the rank
   that died at its end time.  The ranked blame table aggregates path
   seconds by segment kind.

3. **What would a knob change buy?**  Differential what-if projections
   replay the *recorded* per-rank structure under perturbed parameters
   (network alpha-beta scaled, stealing disabled, perfect static
   balance, prefetch coalesced into one GA call) and, where the capture
   carries a ``resimulate`` closure, cross-check the projection against
   an actual re-simulation with a graded PASS / WARN / FAIL verdict.

Terminology: a rank's *end* is its own finish (post-flush); the
*makespan* is the slowest end; *idle* is the endgame wait between the
two and is never on the critical path (the bounding rank has none).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.obs.flight import CH_PREFETCH_GET, CHANNELS

if TYPE_CHECKING:
    from repro.fock.simulate import SimCapture

#: decomposition tolerance: per-rank segments must sum to the rank's end
#: time within this on fault-free runs
DECOMP_TOL = 1e-9
#: time tolerance of the chains: a shorter gap between segments is no slack
_T_EPS = 1e-9

#: what-if verdict thresholds: projection vs re-simulation relative error
WHATIF_PASS = 0.15
WHATIF_WARN = 0.30


# ---------------------------------------------------------------------------
# per-rank exact decomposition


@dataclass
class RankBreakdown:
    """One rank's time, decomposed; ``residual`` is what the model missed."""

    proc: int
    #: pure task-execution seconds (straggler factors included)
    compute: float
    #: comm seconds per flight-recorder channel (prefetch, flush, steal...)
    comm: dict[str, float]
    #: done-and-parked wait before being woken to adopt orphans
    blocked: float
    #: endgame wait behind the slowest rank (makespan - own end)
    idle: float
    #: this rank's own finish time (post-flush)
    end: float
    #: end - (compute + comm + blocked): nonzero only under fault
    #: injection, where delayed completion events insert real waits the
    #: accounting cannot attribute to any channel
    residual: float

    @property
    def comm_total(self) -> float:
        return sum(self.comm.values())

    def to_json(self) -> dict:
        return {
            "proc": self.proc,
            "compute": self.compute,
            "comm": dict(self.comm),
            "comm_total": self.comm_total,
            "blocked": self.blocked,
            "idle": self.idle,
            "end": self.end,
            "residual": self.residual,
        }


@dataclass
class Decomposition:
    """Per-rank exact decomposition of a simulated run."""

    ranks: list[RankBreakdown]
    makespan: float
    #: True when the run had fault injection (residuals are expected)
    faulty: bool

    @property
    def max_residual(self) -> float:
        return max((abs(r.residual) for r in self.ranks), default=0.0)

    @property
    def idle_fraction(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return float(np.mean([r.idle for r in self.ranks])) / self.makespan

    @property
    def ok(self) -> bool:
        """The exact-decomposition invariant: no unexplained residual."""
        return self.faulty or self.max_residual <= DECOMP_TOL

    def check(self) -> None:
        """Assert the invariant, naming the first drifting rank."""
        if self.faulty:
            return  # message-delay slack is legitimate under faults
        for r in self.ranks:
            if abs(r.residual) > DECOMP_TOL:
                raise AssertionError(
                    f"decomposition drift on rank {r.proc}: "
                    f"compute {r.compute:.9g} + comm {r.comm_total:.9g} "
                    f"+ blocked {r.blocked:.9g} != end {r.end:.9g} "
                    f"(residual {r.residual:.3e} > {DECOMP_TOL:g})"
                )

    def to_json(self) -> dict:
        return {
            "makespan": self.makespan,
            "faulty": self.faulty,
            "ok": self.ok,
            "max_residual": self.max_residual,
            "idle_fraction": self.idle_fraction,
            "ranks": [r.to_json() for r in self.ranks],
        }


def decompose(capture: "SimCapture") -> Decomposition:
    """Exact per-rank time decomposition of a captured run.

    Every second of a rank's end time is attributed: compute comes from
    the scheduler's executed-cost accounting, comm from the flight
    recorder's per-channel time matrix (whose own invariant against
    ``CommStats`` is checked elsewhere), blocked waits from the
    scheduler's orphan-adoption records.  Whatever remains is the
    residual -- zero to 1e-9 on fault-free runs.
    """
    stats = capture.stats
    outcome = capture.outcome
    if stats is None or outcome is None or capture.finish is None:
        raise ValueError("capture is not populated; pass it to a simulation")
    nproc = capture.nproc
    end = np.asarray(capture.finish, dtype=float)
    makespan = float(end.max())
    blocked = outcome.blocked_time
    per_channel = {
        ch: stats.flight.per_rank(ch, "time") for ch in CHANNELS
    }
    ranks = []
    for p in range(nproc):
        comm = {
            ch: float(t[p]) for ch, t in per_channel.items() if t[p] > 0.0
        }
        compute = float(outcome.executed_cost[p])
        residual = end[p] - compute - sum(comm.values()) - float(blocked[p])
        ranks.append(
            RankBreakdown(
                proc=p,
                compute=compute,
                comm=comm,
                blocked=float(blocked[p]),
                idle=makespan - float(end[p]),
                end=float(end[p]),
                residual=float(residual),
            )
        )
    faulty = bool(outcome.dead_ranks) or bool(
        getattr(capture.stats, "faults", None)
    )
    return Decomposition(ranks=ranks, makespan=makespan, faulty=faulty)


# ---------------------------------------------------------------------------
# critical-path extraction


class PathSegment(NamedTuple):
    """One interval on a rank's chain (possibly on the critical path).

    A tuple, not a dataclass: a traced paper-scale run has one per batch
    and steal (tens of thousands), and a frozen dataclass costs 2.5x as
    much to build and twice the objects for the collector to track.
    """

    proc: int
    start: float
    end: float
    #: "prefetch" | "compute" | "steal" | "blocked" | "flush" | "slack"
    kind: str
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "proc": self.proc,
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
            "detail": self.detail,
            "duration": self.duration,
        }


def rank_chains(capture: "SimCapture") -> list[list[PathSegment]]:
    """Chronological segment chain per rank, gaps filled with ``slack``.

    Built from the scheduler's own record (``capture.outcome.segments``:
    compute batches, D copies, blocked waits) plus each rank's prefetch
    ``[0, prefetch]`` and flush ``[end - flush, end]``; a zero-length
    phase is no segment.  No trace is read.  Each rank's chain covers
    ``[0, end(p)]`` completely.
    """
    end = np.asarray(capture.finish, dtype=float).tolist()
    raw: list[list[PathSegment]] = [[] for _ in range(capture.nproc)]
    for p, t in enumerate(np.asarray(capture.prefetch_time).tolist()):
        if t > 0:
            raw[p].append(PathSegment(p, 0.0, t, "prefetch"))
    for p, t in enumerate(np.asarray(capture.flush_time).tolist()):
        if t > 0:
            raw[p].append(PathSegment(p, end[p] - t, end[p], "flush"))
    for p, t0, t1, kind, detail in capture.outcome.segments:
        if kind == "compute":
            text = f"{detail} tasks"
        elif kind == "steal":
            text = f"D copy from p{detail}"
        else:
            text = ""
        raw[p].append(PathSegment(p, t0, t1, kind, text))
    chains: list[list[PathSegment]] = []
    for p, segs in enumerate(raw):
        segs.sort(key=itemgetter(1, 2))  # start, then end
        chain: list[PathSegment] = []
        cursor = 0.0
        for s in segs:
            if s.start > cursor + _T_EPS:
                chain.append(PathSegment(p, cursor, s.start, "slack"))
            chain.append(s)
            cursor = max(cursor, s.end)
        if end[p] > cursor + _T_EPS:
            chain.append(PathSegment(p, cursor, end[p], "slack"))
        chains.append(chain)
    return chains


@dataclass
class CriticalPath:
    """The chain of segments bounding the makespan."""

    segments: list[PathSegment]
    makespan: float
    #: (waiting_rank, dead_rank, time) for every cross-rank hop taken
    hops: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def length(self) -> float:
        """Seconds of the makespan the path explains."""
        return sum(s.duration for s in self.segments)

    @property
    def explained_ratio(self) -> float:
        return self.length / self.makespan if self.makespan > 0 else 1.0

    def blame(self) -> list[tuple[str, float, int]]:
        """``(kind, seconds, count)`` ranked by seconds, descending."""
        agg: dict[str, tuple[float, int]] = {}
        for s in self.segments:
            t, n = agg.get(s.kind, (0.0, 0))
            agg[s.kind] = (t + s.duration, n + 1)
        return sorted(
            ((k, t, n) for k, (t, n) in agg.items()),
            key=lambda x: -x[1],
        )

    def to_json(self) -> dict:
        return {
            "makespan": self.makespan,
            "length": self.length,
            "explained_ratio": self.explained_ratio,
            "hops": [list(h) for h in self.hops],
            "blame": [
                {"kind": k, "seconds": t, "count": n}
                for k, t, n in self.blame()
            ],
            "segments": [s.to_json() for s in self.segments],
        }


def extract_path(
    capture: "SimCapture", chains: list[list[PathSegment]] | None = None
) -> CriticalPath:
    """Walk the critical path backwards from the slowest rank.

    Within a rank the chain is sequential, so every segment before the
    cursor is on the path.  The only cross-rank start dependency the
    scheduler has is orphan adoption: a ``blocked`` segment ends exactly
    at a rank death, so the walk hops to the chain of the rank whose
    recorded death time that is and continues before the death.
    Fault-free runs never hop: the path is the bounding rank's whole
    chain and ``explained_ratio == 1``.
    """
    if chains is None:
        chains = rank_chains(capture)
    end = np.asarray(capture.finish, dtype=float)
    makespan = float(end.max())
    bounding = int(end.argmax())
    deaths = capture.outcome.deaths
    path: list[PathSegment] = []
    hops: list[tuple[int, int, float]] = []
    rank, cursor = bounding, makespan
    visited: set[tuple[int, float]] = set()
    while True:
        segs = [s for s in chains[rank] if s.end <= cursor + _T_EPS]
        hop_from: PathSegment | None = None
        for s in reversed(segs):
            path.append(s)
            if s.kind == "blocked":
                hop_from = s
                break
        if hop_from is None:
            break
        cursor = hop_from.end
        dead = next((q for q, t in deaths.items() if t == cursor), None)
        if dead is None or (dead, cursor) in visited:
            break  # no death at that time (or cyclic); stop cleanly
        visited.add((dead, cursor))
        hops.append((rank, dead, cursor))
        rank = dead
    path.reverse()
    return CriticalPath(segments=path, makespan=makespan, hops=hops)


# ---------------------------------------------------------------------------
# differential what-if projection


@dataclass
class WhatIf:
    """One projected perturbation of the recorded run."""

    name: str
    description: str
    #: makespan projected from the recorded per-rank structure
    projected_makespan: float
    #: baseline makespan / projected makespan
    speedup: float
    #: makespan of an actual re-simulation under the perturbation
    resim_makespan: float | None = field(default=None, init=False)
    #: |projection - resim| / resim
    rel_err: float | None = field(default=None, init=False)
    #: "PASS" | "WARN" | "FAIL" when cross-checked, "PROJECTED" otherwise
    verdict: str = field(default="PROJECTED", init=False)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "projected_makespan": self.projected_makespan,
            "speedup": self.speedup,
            "resim_makespan": self.resim_makespan,
            "rel_err": self.rel_err,
            "verdict": self.verdict,
        }


def _graded(w: WhatIf, resim: float) -> WhatIf:
    w.resim_makespan = resim
    w.rel_err = (
        abs(w.projected_makespan - resim) / resim if resim > 0 else 0.0
    )
    if w.rel_err <= WHATIF_PASS:
        w.verdict = "PASS"
    elif w.rel_err <= WHATIF_WARN:
        w.verdict = "WARN"
    else:
        w.verdict = "FAIL"
    return w


def project_whatifs(
    capture: "SimCapture",
    decomp: Decomposition,
    resim: bool = True,
    network_scale: float = 2.0,
) -> list[WhatIf]:
    """Differential what-if projections, cross-checked where possible.

    The projections replay the *recorded* per-rank totals under
    perturbed parameters; they deliberately do not re-schedule, which is
    exactly what makes them cheap -- and what the re-simulation
    cross-check guards.  Scenarios whose perturbation cannot be
    re-simulated (perfect balance, coalesced prefetch) stay
    ``PROJECTED``.
    """
    out: list[WhatIf] = []
    base = decomp.makespan
    end = np.asarray(capture.finish, dtype=float)
    comm_total = np.array([r.comm_total for r in decomp.ranks])
    config = capture.config
    outcome = capture.outcome
    can_resim = resim and capture.resimulate is not None
    pf = np.asarray(capture.prefetch_time, dtype=float)

    # -- network alpha-beta scaled by `network_scale` (slower) --------------
    f = float(network_scale)
    proj = float(np.max(end + (f - 1.0) * comm_total))
    w = WhatIf(
        name=f"network_{f:g}x",
        description=(
            f"network {f:g}x slower (latency x{f:g}, bandwidth /{f:g}): "
            "every recorded comm second scales linearly in alpha-beta"
        ),
        projected_makespan=proj,
        speedup=base / proj if proj > 0 else 1.0,
    )
    if can_resim:
        w = _graded(
            w,
            capture.resimulate(
                latency=config.latency * f, bandwidth=config.bandwidth / f
            ),
        )
    out.append(w)

    # -- stealing disabled ---------------------------------------------------
    fl = np.asarray(capture.flush_time, dtype=float)
    proj = float(np.max(pf + outcome.initial_cost + fl))
    w = WhatIf(
        name="no_stealing",
        description=(
            "work stealing disabled: each rank computes exactly its "
            "initial static-partition queue, then flushes"
        ),
        projected_makespan=proj,
        speedup=base / proj if proj > 0 else 1.0,
    )
    if can_resim:
        w = _graded(w, capture.resimulate(enable_stealing=False))
    out.append(w)

    # -- perfect static balance (projection only) ---------------------------
    mean_cost = float(np.mean(outcome.initial_cost))
    proj = float(np.max(pf + mean_cost + fl))
    out.append(
        WhatIf(
            name="perfect_balance",
            description=(
                "oracle static partition: total compute spread evenly, "
                "no steal traffic (lower bound on balance gains)"
            ),
            projected_makespan=proj,
            speedup=base / proj if proj > 0 else 1.0,
        )
    )

    # -- prefetch coalesced into one GA call (projection only) ---------------
    pf_bytes = capture.stats.flight.per_rank(CH_PREFETCH_GET, "bytes")
    new_pf = np.where(
        pf > 0, config.latency + pf_bytes / config.bandwidth, 0.0
    )
    proj = float(np.max(end - pf + new_pf))
    out.append(
        WhatIf(
            name="prefetch_coalesced",
            description=(
                "prefetch granularity: the whole D footprint fetched in a "
                "single GA call instead of one per bounding box"
            ),
            projected_makespan=proj,
            speedup=base / proj if proj > 0 else 1.0,
        )
    )
    return out


# ---------------------------------------------------------------------------
# the analysis bundle


@dataclass
class CritPathAnalysis:
    """Everything the analyzer produced for one captured run."""

    algorithm: str
    molecule: str
    cores: int
    nproc: int
    decomposition: Decomposition
    chains: list[list[PathSegment]]
    path: CriticalPath
    whatifs: list[WhatIf]

    def check(self) -> None:
        """Raise AssertionError on any invariant violation or FAIL verdict."""
        self.decomposition.check()
        for w in self.whatifs:
            if w.verdict == "FAIL":
                raise AssertionError(
                    f"what-if {w.name!r} projection drifted "
                    f"{w.rel_err:.1%} from its re-simulation "
                    f"(> {WHATIF_WARN:.0%})"
                )

    def summary(self) -> dict:
        """Compact dict for the run ledger / regression observatory."""
        return {
            "makespan": self.decomposition.makespan,
            "idle_fraction": self.decomposition.idle_fraction,
            "max_residual": self.decomposition.max_residual,
            "decomposition_ok": self.decomposition.ok,
            "explained_ratio": self.path.explained_ratio,
            "whatif_max_rel_err": max(
                (w.rel_err for w in self.whatifs if w.rel_err is not None),
                default=None,
            ),
            "whatifs": {
                w.name: {
                    "speedup": w.speedup,
                    "rel_err": w.rel_err,
                    "verdict": w.verdict,
                }
                for w in self.whatifs
            },
        }

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "molecule": self.molecule,
            "cores": self.cores,
            "nproc": self.nproc,
            "decomposition": self.decomposition.to_json(),
            "path": self.path.to_json(),
            "whatifs": [w.to_json() for w in self.whatifs],
            "chains": [[s.to_json() for s in chain] for chain in self.chains],
        }

    def export_metrics(self, registry=None) -> None:
        """Export ``repro_critpath_*`` gauges to the metrics registry."""
        from repro.obs.ambient import get_metrics

        reg = registry if registry is not None else get_metrics()
        d = self.decomposition
        reg.gauge(
            "repro_critpath_makespan_seconds",
            "Makespan of the analyzed simulated Fock build",
        ).set(d.makespan)
        reg.gauge(
            "repro_critpath_idle_fraction",
            "Average endgame idle fraction across ranks",
        ).set(d.idle_fraction)
        reg.gauge(
            "repro_critpath_max_residual_seconds",
            "Largest per-rank decomposition residual (0 means exact)",
        ).set(d.max_residual)
        reg.gauge(
            "repro_critpath_explained_ratio",
            "Fraction of the makespan covered by the critical path",
        ).set(self.path.explained_ratio)
        blame = reg.gauge(
            "repro_critpath_blame_seconds",
            "Critical-path seconds attributed to each segment kind",
            labelnames=("kind",),
        )
        for kind, seconds, _count in self.path.blame():
            blame.set(seconds, kind=kind)
        speedup = reg.gauge(
            "repro_critpath_whatif_speedup",
            "Projected makespan speedup under each what-if scenario",
            labelnames=("scenario",),
        )
        relerr = reg.gauge(
            "repro_critpath_whatif_rel_err",
            "Projection vs re-simulation relative error per scenario",
            labelnames=("scenario",),
        )
        for w in self.whatifs:
            speedup.set(w.speedup, scenario=w.name)
            if w.rel_err is not None:
                relerr.set(w.rel_err, scenario=w.name)

    # -- terminal rendering --------------------------------------------------

    def text(self) -> str:
        """Terminal report: decomposition, blame table, what-if table."""
        d = self.decomposition
        lines = [
            f"critical-path analysis: {self.algorithm} "
            f"{self.molecule or '?'} @ {self.cores} cores "
            f"({self.nproc} ranks)",
            f"makespan {d.makespan * 1e3:.3f} ms   "
            f"idle fraction {d.idle_fraction:.1%}   "
            f"max residual {d.max_residual:.2e}s "
            f"[{'ok' if d.ok else 'DRIFT'}]",
            "",
            "per-rank decomposition (ms):",
            f"  {'rank':>4}  {'compute':>9}  {'comm':>9}  {'blocked':>9}"
            f"  {'idle':>9}  {'end':>9}",
        ]
        shown = sorted(d.ranks, key=lambda r: -r.end)[:16]
        for r in sorted(shown, key=lambda r: r.proc):
            lines.append(
                f"  {r.proc:>4}  {r.compute * 1e3:>9.3f}"
                f"  {r.comm_total * 1e3:>9.3f}"
                f"  {r.blocked * 1e3:>9.3f}  {r.idle * 1e3:>9.3f}"
                f"  {r.end * 1e3:>9.3f}"
            )
        if len(d.ranks) > len(shown):
            lines.append(
                f"  ... ({len(d.ranks) - len(shown)} faster ranks elided)"
            )
        lines += [
            "",
            f"critical path: {len(self.path.segments)} segments, "
            f"{len(self.path.hops)} cross-rank hops, "
            f"explains {self.path.explained_ratio:.1%} of the makespan",
            "blame table (path seconds by kind):",
        ]
        for kind, seconds, count in self.path.blame():
            share = seconds / d.makespan if d.makespan > 0 else 0.0
            lines.append(
                f"  {kind:<10} {seconds * 1e3:>9.3f} ms  {share:>6.1%}"
                f"  ({count} segments)"
            )
        if self.whatifs:
            lines += ["", "what-if projections:"]
            for w in self.whatifs:
                check = (
                    f"resim {w.resim_makespan * 1e3:.3f} ms, "
                    f"err {w.rel_err:.1%}"
                    if w.rel_err is not None
                    else "projection only"
                )
                lines.append(
                    f"  {w.name:<20} {w.speedup:>6.2f}x "
                    f"-> {w.projected_makespan * 1e3:.3f} ms "
                    f"[{w.verdict}] ({check})"
                )
        return "\n".join(lines)


def analyze(
    capture: "SimCapture",
    resim: bool = True,
    network_scale: float = 2.0,
) -> CritPathAnalysis:
    """Run the full analyzer over a populated :class:`SimCapture`.

    ``resim`` toggles the what-if re-simulation cross-checks (each one
    re-runs the whole timing simulation; disable for cheap reports).
    The critical path comes from the scheduler's record, so a run needs
    no tracer to have one.
    """
    decomp = decompose(capture)
    chains = rank_chains(capture)
    cp = extract_path(capture, chains)
    whatifs = project_whatifs(
        capture, decomp, resim=resim, network_scale=network_scale
    )
    return CritPathAnalysis(
        algorithm=capture.algorithm,
        molecule=capture.molecule,
        cores=capture.cores,
        nproc=capture.nproc,
        decomposition=decomp,
        chains=chains,
        path=cp,
        whatifs=whatifs,
    )
