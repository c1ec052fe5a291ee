"""Fault injection for the simulated runtime (chaos engineering layer).

The paper's work-stealing scheduler (Sec III-F) assumes every rank
survives and every one-sided GA op succeeds -- the assumptions that break
first at scale.  This module makes failure a *declarative, seeded input*
of a simulated run:

* :class:`FaultPlan` -- what goes wrong: per-rank straggler slowdowns,
  transient one-sided op failures (retried with exponential backoff,
  charged to the virtual clock on the ``retry`` flight channel), delayed
  messages, and hard rank death at a virtual time;
* :class:`FaultState` -- the activated plan: one seeded
  :class:`numpy.random.Generator` drives every draw (op failures, ack
  loss, delays, victim tie-breaks), so a chaos run is reproducible from
  its seed alone;
* :func:`random_plan` -- a seeded random plan generator used by the
  ``repro chaos`` CLI and the chaos benchmark.

A fault family is declared once, on two bases every family shares:
:class:`SeededPlan` (each plan field carries its kind and ``describe``
label; validation, ``has_faults`` and ``describe`` are loops over the
fields) and :class:`SeededFaultState` (rng, corruption budget, fire-once
matrix faults).  Every gate returns one :class:`GateResult` record: its
invariants, detail lines and ``--json`` payload; ``passed``, the failure
line and the PASS/FAIL line derive from the invariants.

Consumers: :class:`~repro.runtime.network.CommStats` charges retries and
delays, :class:`~repro.runtime.ga.GlobalArray` models ack-lost
accumulates (exactly-once via tags/epochs), the
:class:`~repro.runtime.event.EventQueue` perturbs scheduler events, and
:func:`~repro.fock.stealing.run_work_stealing` executes rank deaths and
task recovery.  See ``docs/ROBUSTNESS.md`` for the fault taxonomy and
the recovery protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


class FaultError(RuntimeError):
    """A fault the runtime could not absorb (e.g. retries exhausted)."""


class EmptyPlanError(ValueError):
    """A chaos gate was handed a plan that injects nothing: bad input,
    not a green gate (``repro chaos`` exits 2)."""

    def __init__(self, plan: str):
        super().__init__(
            f"fault plan injects nothing ({plan}): a chaos gate needs at "
            "least one fault to survive"
        )


class PlanValueError(ValueError):
    """A fault-plan value out of range: bad input, like
    :class:`EmptyPlanError` (``repro chaos`` exits 2 on one line)."""


def declare(kind: str, default, label: str | None = None, **spec):
    """One fault-plan field, declared once.

    ``kind`` fixes the range check and the ``describe`` text; ``label``
    is the field's ``describe`` name (None: never shown).  Kinds:

    * ``rate`` -- a probability in [0, 1] (``below_one=True``: [0, 1));
    * ``count`` -- a number of injections, >= 0;
    * ``iterations`` -- a tuple of 1-based SCF iteration numbers;
    * ``per_rank`` -- a ``rank -> value`` map, every value >= ``least``,
      each entry shown as ``item.format(rank, value)``;
    * ``param`` -- a plain knob, >= ``least``; never a fault by itself.

    A truthy value of any kind but ``param`` makes the plan inject
    something.  ``show`` formats the ``describe`` value.
    """
    spec = {"kind": kind, "label": label, **spec}
    spec.setdefault("least", 0)
    spec.setdefault("show", "{:g}" if kind == "rate" else "{}")
    if kind == "per_rank":
        return field(default_factory=default, metadata=spec)
    return field(default=default, metadata=spec)


@dataclass(frozen=True)
class SeededPlan:
    """What every fault plan is: a frozen, seeded, declarative input.

    Subclasses add :func:`declare` fields; range checks, ``has_faults``
    and ``describe`` are derived here, one loop over the fields each.
    All randomness derives from ``seed``: activating the same plan twice
    yields identical fault sequences (given the same execution).
    """

    seed: int = 0

    def _declared(self):
        """``(name, declaration, value)`` of every declared field."""
        return [
            (f.name, f.metadata, getattr(self, f.name))
            for f in fields(self) if f.metadata
        ]

    def __post_init__(self) -> None:
        for name, d, v in self._declared():
            kind, least = d["kind"], d["least"]
            if kind == "rate":
                open_top = d.get("below_one", False)
                if not (0.0 <= v < 1.0 if open_top else 0.0 <= v <= 1.0):
                    top = "1)" if open_top else "1]"
                    raise PlanValueError(f"{name} must be in [0, {top}, got {v}")
            elif kind == "iterations":
                for it in v:
                    if it < 1:
                        raise PlanValueError(
                            f"{name} entries are 1-based iteration numbers, got {it}"
                        )
            elif kind == "per_rank":
                for rank, x in v.items():
                    if x < least:
                        raise PlanValueError(
                            f"{name}[{rank}] must be {d.get('noun', '')}"
                            f">= {least}, got {x}"
                        )
            elif v < least:
                raise PlanValueError(f"{name} must be >= {least}, got {v}")

    @property
    def has_faults(self) -> bool:
        return any(v for _, d, v in self._declared() if d["kind"] != "param")

    def require_faults(self) -> None:
        """Raise :class:`EmptyPlanError` unless the plan injects something."""
        if not self.has_faults:
            raise EmptyPlanError(self.describe())

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for _, d, v in self._declared():
            if d["label"] is None or not v:
                continue
            if d["kind"] == "iterations":
                text = ",".join(str(i) for i in v)
            elif d["kind"] == "per_rank":
                text = ",".join(d["item"].format(p, x) for p, x in sorted(v.items()))
            else:
                text = d["show"].format(v)
            parts.append(f"{d['label']}={text}")
        return " ".join(parts)


#: the retry protocol: a one-sided op that failed ``k`` times in a row
#: waits ``BACKOFF_BASE * BACKOFF_FACTOR**k`` before retrying, and gives up
#: (:class:`FaultError`) after ``MAX_RETRIES`` consecutive failures
MAX_RETRIES = 16
BACKOFF_BASE = 20e-6
BACKOFF_FACTOR = 2.0
#: share of failed put/acc attempts whose mutation applied but whose
#: acknowledgement was lost: a blind retry of a non-idempotent ``GA_Acc``
#: would then double-apply -- unless the target deduplicates by tag (see
#: :meth:`GlobalArray.acc`)
ACK_LOSS_RATE = 0.5
#: a delayed op (or scheduler event) waits ``uniform(0, DELAY_SECONDS)``
DELAY_SECONDS = 100e-6


@dataclass(frozen=True)
class FaultPlan(SeededPlan):
    """Declarative description of everything that goes wrong in a run.

    Parameters
    ----------
    seed:
        Seed of the single :class:`numpy.random.Generator` behind every
        draw the plan makes.
    deaths:
        ``rank -> virtual time`` of hard, permanent rank death.  A dead
        rank stops executing, its queued *and* already-executed-but-
        unflushed tasks re-enter the pool, and it never flushes.
    slowdown:
        Per-rank compute slowdown factors (straggler model): rank ``p``
        executes tasks ``slowdown[p]`` times slower.  Factors must be
        ``>= 1``.
    op_fail_rate:
        Per-attempt probability that a remote one-sided op transiently
        fails.  Failed attempts are retried under the retry protocol
        (:data:`MAX_RETRIES`, :data:`BACKOFF_BASE`,
        :data:`BACKOFF_FACTOR`, :data:`ACK_LOSS_RATE`); each retry
        re-sends the payload, counted on the ``retry`` channel.
    delay_rate:
        With probability ``delay_rate``, an op (or a scheduler event) is
        delayed by ``uniform(0, DELAY_SECONDS)`` of virtual time.
    """

    deaths: dict[int, float] = declare(
        "per_rank", dict, "deaths", noun="a time ", item="r{}@{:.3g}s"
    )
    slowdown: dict[int, float] = declare(
        "per_rank", dict, "slow", least=1, item="r{}x{:g}"
    )
    op_fail_rate: float = declare("rate", 0.0, "op_fail", below_one=True)
    delay_rate: float = declare(
        "rate", 0.0, "delay", show=f"{{:g}}x{DELAY_SECONDS:g}s"
    )

    def activate(self, nproc: int) -> "FaultState":
        """Instantiate the plan for an ``nproc``-rank run."""
        return FaultState(self, nproc)


class FaultState:
    """An activated :class:`FaultPlan`: the rng plus recovery counters.

    One instance per simulated run.  Every random decision -- op
    failures, ack loss, message delays, steal tie-breaks -- consumes the
    same seeded generator, so a run is a pure function of
    ``(inputs, plan)``.
    """

    def __init__(self, plan: FaultPlan, nproc: int):
        if nproc < 1:
            raise ValueError(f"need at least one rank, got {nproc}")
        live = nproc - sum(1 for p in plan.deaths if 0 <= p < nproc)
        if live < 1:
            raise PlanValueError("a FaultPlan must leave at least one rank alive")
        self.plan = plan
        self.nproc = nproc
        self.rng = np.random.default_rng(plan.seed)
        #: transient-failure retries charged, per rank
        self.retries = np.zeros(nproc, dtype=np.int64)
        #: ack-lost (applied-but-unacknowledged) accumulate attempts
        self.acks_lost = np.zeros(nproc, dtype=np.int64)
        #: injected message-delay seconds, per rank
        self.delay_time = np.zeros(nproc)

    # -- per-fault draws (all seeded) ----------------------------------------

    def compute_factor(self, rank: int) -> float:
        """Straggler slowdown multiplier for ``rank`` (1.0 = healthy)."""
        return float(self.plan.slowdown.get(rank, 1.0))

    def draw_failures(self, rank: int) -> int:
        """Consecutive transient failures of one op before it succeeds.

        Raises :class:`FaultError` once :data:`MAX_RETRIES` attempts in
        a row have failed -- the op is treated as permanently broken.
        """
        rate = self.plan.op_fail_rate
        if rate <= 0.0:
            return 0
        n = 0
        while self.rng.random() < rate:
            n += 1
            if n >= MAX_RETRIES:
                raise FaultError(
                    f"rank {rank}: one-sided op failed {n} consecutive "
                    f"times (op_fail_rate={rate}); retries exhausted"
                )
        return n

    def draw_ack_lost(self, rank: int, nfailures: int) -> int:
        """How many of ``nfailures`` failed attempts applied their mutation."""
        if nfailures <= 0:
            return 0
        lost = int(self.rng.binomial(nfailures, ACK_LOSS_RATE))
        self.acks_lost[rank] += lost
        return lost

    def draw_delay(self, rank: int) -> float:
        """Injected delivery delay (seconds) for one op; usually 0."""
        if self.plan.delay_rate <= 0.0:
            return 0.0
        if self.rng.random() >= self.plan.delay_rate:
            return 0.0
        d = float(DELAY_SECONDS * self.rng.random())
        self.delay_time[rank] += d
        return d

    def backoff(self, attempt: int) -> float:
        """Exponential backoff wait before retry ``attempt`` (0-based)."""
        return float(BACKOFF_BASE * BACKOFF_FACTOR**attempt)

    def perturb_event(self, time: float, key) -> float:
        """Delayed-message jitter for scheduler events.

        Only plain rank-completion events (integer keys) are perturbed;
        control events (death markers etc.) keep exact times.
        """
        if not isinstance(key, (int, np.integer)):
            return time
        if self.plan.delay_rate <= 0.0:
            return time
        if self.rng.random() >= self.plan.delay_rate:
            return time
        return time + float(DELAY_SECONDS * self.rng.random())

    # -- reporting -----------------------------------------------------------

    def overhead_summary(self) -> dict:
        """Recovery-overhead counters for reports and the chaos CLI."""
        return {
            "retries_total": int(self.retries.sum()),
            "acks_lost_total": int(self.acks_lost.sum()),
            "delay_time_total": float(self.delay_time.sum()),
            "dead_ranks": sorted(int(p) for p in self.plan.deaths),
            "plan": self.plan.describe(),
        }


@dataclass(frozen=True)
class SCFFaultPlan(SeededPlan):
    """Declarative numerical faults for the SCF / Fock-build layer.

    The runtime :class:`FaultPlan` breaks the *machine* (rank deaths,
    lost acks); this plan breaks the *numerics*: it corrupts class-kernel
    ERI quartet blocks and SCF iteration matrices with NaN/Inf, the
    failure mode of a buggy fast kernel or a bad FMA path on one node.
    The convergence guard (:mod:`repro.scf.guard`) must detect and rescue
    every corruption -- that is the ``repro chaos --family scf`` gate.

    Corruption only targets the rows the class kernel computes inside the
    production Fock build (:func:`repro.integrals.class_batch.jk_from_plan`)
    -- never stored rows, or rows the Obara-Saika rescue kernel
    recomputes -- so the per-row rescue (and the guard's ``reference_eri``
    rung, which arms it) genuinely repairs the build.

    Parameters
    ----------
    seed:
        Seed of the generator behind every corruption draw.
    quartet_nan_rate / quartet_inf_rate:
        Per-quartet-block probability that the class kernel's result is
        corrupted with NaN (resp. +Inf) in one random element.
    fock_nan_iterations / density_nan_iterations:
        SCF iteration numbers (1-based) at which one element of the
        freshly built Fock (resp. density) matrix is replaced by NaN.
        Each (iteration, target) fault fires exactly once, so the
        guard's in-iteration rebuild is not re-corrupted.
    max_corruptions:
        Hard cap on total injected corruptions (0 = unlimited); keeps
        high-rate plans from corrupting every block of a large build.
    """

    quartet_nan_rate: float = declare("rate", 0.0, "quartet_nan")
    quartet_inf_rate: float = declare("rate", 0.0, "quartet_inf")
    fock_nan_iterations: tuple[int, ...] = declare("iterations", (), "fock_nan@it")
    density_nan_iterations: tuple[int, ...] = declare(
        "iterations", (), "density_nan@it"
    )
    max_corruptions: int = declare("param", 0, "max")

    def activate(self) -> "SCFFaultState":
        return SCFFaultState(self)


@dataclass(frozen=True)
class BuildFaults:
    """The quartet corruptions of one Fock build, drawn up front."""

    #: victim plan rows, ascending
    rows: np.ndarray
    #: the NaN or Inf each victim gets
    values: np.ndarray
    #: position in the victim's block, as a fraction of the block size
    where: np.ndarray

    def corrupt_rows(self, blocks: np.ndarray, rows: np.ndarray) -> int:
        """Corrupt in place the victims among the stacked ``blocks`` of
        plan ``rows`` (ascending); returns how many."""
        hit = np.flatnonzero(np.isin(self.rows, rows))
        for i, at in zip(hit, np.searchsorted(rows, self.rows[hit])):
            block = blocks[at]
            block.flat[int(self.where[i] * block.size)] = self.values[i]
        return int(hit.size)


class SeededFaultState:
    """An activated numeric fault plan (``scf`` / ``sdc``): the seeded
    rng, the corruption budget, the ``(iteration, target)`` fire-once
    set and the matrix-fault skeleton.  A family names its injection
    counters (``_counters``) and the plan fields holding its matrix-fault
    iterations (``_iterations``, formatted with ``fock`` / ``density``),
    and says *which element* a matrix fault picks and *what value* it
    writes (:meth:`_hit`)."""

    _counters: tuple[str, ...] = ()
    _iterations = ""

    def __init__(self, plan):
        self.plan = plan
        #: one generator behind every draw: a run is reproducible from
        #: the plan's seed alone
        self.rng = np.random.default_rng(plan.seed)
        #: SCF matrices (Fock/density) corrupted
        self.matrices_corrupted = 0
        #: (iteration, target) matrix faults that already fired
        self._fired: set[tuple[int, str]] = set()

    @property
    def injections_total(self) -> int:
        return sum(getattr(self, name) for name in self._counters)

    def _budget_left(self) -> int | None:
        """Corruptions still allowed (None = unlimited)."""
        cap = self.plan.max_corruptions
        if cap == 0:
            return None
        return max(0, cap - self.injections_total)

    def _hit(self, a: np.ndarray) -> tuple[int, float]:
        """``(flat index, new value)`` of the one element of ``a`` a
        matrix fault rewrites."""
        raise NotImplementedError

    def corrupt_matrix(
        self, a: np.ndarray, iteration: int, which: str
    ) -> np.ndarray:
        """Maybe corrupt one element of an SCF matrix at ``iteration``.

        Each (iteration, which) fault fires at most once, so a
        detected-and-rebuilt matrix of the same iteration is clean.
        """
        targets = getattr(self.plan, self._iterations.format(which))
        key = (int(iteration), which)
        if iteration not in targets or key in self._fired:
            return a
        if a.size == 0 or self._budget_left() == 0:
            return a
        self._fired.add(key)
        out = np.array(a, dtype=np.float64)
        i, value = self._hit(out)
        out.reshape(-1)[i] = value
        self.matrices_corrupted += 1
        return out

    def summary(self) -> dict:
        """Injection counters for reports and the chaos CLI."""
        return {
            **{name: int(getattr(self, name)) for name in self._counters},
            "injections_total": int(self.injections_total),
            "plan": self.plan.describe(),
        }


class SCFFaultState(SeededFaultState):
    """An activated :class:`SCFFaultPlan`: a matrix fault NaNs one
    uniformly drawn element; quartet faults reseed per build."""

    _counters = ("quartets_corrupted", "matrices_corrupted")
    _iterations = "{}_nan_iterations"

    def __init__(self, plan: SCFFaultPlan):
        super().__init__(plan)
        #: Fock builds drawn so far (the ordinal of the next one)
        self.builds = 0
        #: class-kernel ERI blocks corrupted (NaN or Inf)
        self.quartets_corrupted = 0

    def draw_build(self, nrows: int) -> BuildFaults | None:
        """The quartet corruptions of the next Fock build over an
        ``nrows``-row class plan (None when the plan has no quartet rate).

        Each row's fate is a pure function of (plan seed, build ordinal,
        plan row), fixed before any worker starts: a faulted build
        corrupts the same blocks at every thread count and on every run
        of one seed.  ``max_corruptions`` keeps the first victims, in
        row order, that the remaining budget covers.
        """
        p = self.plan
        ordinal, self.builds = self.builds, self.builds + 1
        if not (p.quartet_nan_rate or p.quartet_inf_rate):
            return None
        draw, where = np.random.default_rng([p.seed, ordinal]).random(
            (nrows, 2)
        ).T
        rows = np.flatnonzero(draw < p.quartet_nan_rate + p.quartet_inf_rate)
        rows = rows[:self._budget_left()]
        values = np.where(draw[rows] < p.quartet_nan_rate, np.nan, np.inf)
        return BuildFaults(rows, values, where[rows])

    def _hit(self, a: np.ndarray) -> tuple[int, float]:
        return int(self.rng.integers(a.size)), np.nan


def random_plan(
    seed: int,
    nproc: int,
    horizon: float,
    ndeaths: int = 1,
    nstragglers: int = 1,
    op_fail_rate: float = 0.05,
    delay_rate: float = 0.05,
) -> FaultPlan:
    """Seeded random :class:`FaultPlan` for an ``nproc``-rank run.

    ``horizon`` is the fault-free makespan: deaths are placed uniformly
    in ``[0.1, 0.7] * horizon`` so they land mid-execution.  The same
    ``(seed, nproc, horizon, ...)`` always yields the same plan -- the
    contract behind ``repro chaos --seed``.
    """
    if ndeaths >= nproc:
        raise PlanValueError(
            f"cannot kill {ndeaths} of {nproc} ranks (need a survivor)"
        )
    rng = np.random.default_rng(seed)
    victims = rng.choice(nproc, size=ndeaths, replace=False) if ndeaths else []
    deaths = {
        int(p): float(horizon * rng.uniform(0.1, 0.7)) for p in victims
    }
    alive = [p for p in range(nproc) if p not in deaths]
    nstrag = min(nstragglers, len(alive))
    stragglers = rng.choice(alive, size=nstrag, replace=False) if nstrag else []
    slowdown = {
        int(p): float(rng.uniform(1.5, 3.0)) for p in stragglers
    }
    return FaultPlan(
        seed=seed,
        slowdown=slowdown,
        deaths=deaths,
        op_fail_rate=op_fail_rate,
        delay_rate=delay_rate,
    )


@dataclass(frozen=True)
class GateResult:
    """What every chaos gate returns: one record per run.

    ``invariants`` is the gate stated ONCE, ``(name, held)`` per
    condition; ``details`` are the family's measurements, one printable
    line each; ``payload`` is the family's ``--json`` document.  A
    family's ``<family>_gate`` function builds it from the payload, so
    ``passed``, the failure line and the PASS/FAIL summary line -- all
    derived from ``invariants`` -- cannot disagree, and a failure names
    every invariant that broke.
    """

    #: display name ("chaos", "scf chaos", ..., "torture")
    gate: str
    invariants: tuple[tuple[str, bool], ...]
    details: tuple[str, ...]
    payload: dict | list

    @classmethod
    def stamped(cls, gate: str, invariants, details, payload: dict) -> "GateResult":
        """The record of a gate whose payload carries its verdict as
        ``passed``."""
        passed = all(held for _, held in invariants)
        return cls(gate, tuple(invariants), tuple(details), {**payload, "passed": passed})

    def broken(self) -> list[str]:
        return [name for name, held in self.invariants if not held]

    @property
    def passed(self) -> bool:
        return not self.broken()

    def summary_lines(self) -> list[str]:
        broken = self.broken()
        verdict = "FAIL: " + "; ".join(broken) if broken else "PASS"
        return [*self.details, f"{len(self.invariants)} invariants -> {verdict}"]

    def failure_line(self) -> str:
        return f"{self.gate} invariant FAILED: " + "; ".join(self.broken())


def landed(n: int) -> tuple[str, bool]:
    """The invariant every fault family shares: the plan asked for faults
    and at least one landed -- surviving nothing proves nothing."""
    return ("at least one planned fault landed", n > 0)
