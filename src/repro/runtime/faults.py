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

Consumers: :class:`~repro.runtime.network.CommStats` charges retries and
delays, :class:`~repro.runtime.ga.GlobalArray` models ack-lost
accumulates (exactly-once via tags/epochs), the
:class:`~repro.runtime.event.EventQueue` perturbs scheduler events, and
:func:`~repro.fock.stealing.run_work_stealing` executes rank deaths and
task recovery.  See ``docs/ROBUSTNESS.md`` for the fault taxonomy and
the recovery protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FaultError(RuntimeError):
    """A fault the runtime could not absorb (e.g. retries exhausted)."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of everything that goes wrong in a run.

    All randomness derives from ``seed``; activating the same plan twice
    yields identical failure sequences (given the same execution).

    Parameters
    ----------
    seed:
        Seed of the single :class:`numpy.random.Generator` behind every
        draw the plan makes.
    slowdown:
        Per-rank compute slowdown factors (straggler model): rank ``p``
        executes tasks ``slowdown[p]`` times slower.  Factors must be
        ``>= 1``.
    deaths:
        ``rank -> virtual time`` of hard, permanent rank death.  A dead
        rank stops executing, its queued *and* already-executed-but-
        unflushed tasks re-enter the pool, and it never flushes.
    op_fail_rate:
        Per-attempt probability that a remote one-sided op transiently
        fails.  Failed attempts are retried with exponential backoff;
        each retry re-sends the payload (counted on the ``retry``
        channel) and waits ``backoff_base * backoff_factor**k``.
    max_retries:
        Give up (raise :class:`FaultError`) after this many consecutive
        failures of one op -- the fault is no longer transient.
    ack_loss_rate:
        Fraction of failed put/acc attempts where the *mutation applied*
        but the acknowledgement was lost.  A blind retry of a non-
        idempotent ``GA_Acc`` would then double-apply -- unless the
        target deduplicates by tag (see :meth:`GlobalArray.acc`).
    delay_rate / delay_seconds:
        With probability ``delay_rate``, an op (or a scheduler event) is
        delayed by ``uniform(0, delay_seconds)`` of virtual time.
    """

    seed: int = 0
    slowdown: dict[int, float] = field(default_factory=dict)
    deaths: dict[int, float] = field(default_factory=dict)
    op_fail_rate: float = 0.0
    max_retries: int = 16
    backoff_base: float = 20e-6
    backoff_factor: float = 2.0
    ack_loss_rate: float = 0.5
    delay_rate: float = 0.0
    delay_seconds: float = 100e-6

    def __post_init__(self) -> None:
        if not 0.0 <= self.op_fail_rate < 1.0:
            raise ValueError(f"op_fail_rate must be in [0, 1), got {self.op_fail_rate}")
        if not 0.0 <= self.ack_loss_rate <= 1.0:
            raise ValueError(f"ack_loss_rate must be in [0, 1], got {self.ack_loss_rate}")
        if not 0.0 <= self.delay_rate <= 1.0:
            raise ValueError(f"delay_rate must be in [0, 1], got {self.delay_rate}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.backoff_base < 0 or self.delay_seconds < 0:
            raise ValueError("backoff_base and delay_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        for rank, f in self.slowdown.items():
            if f < 1.0:
                raise ValueError(f"slowdown[{rank}] must be >= 1, got {f}")
        for rank, t in self.deaths.items():
            if t < 0:
                raise ValueError(f"deaths[{rank}] must be a time >= 0, got {t}")

    @property
    def has_faults(self) -> bool:
        return bool(
            self.slowdown
            or self.deaths
            or self.op_fail_rate
            or self.delay_rate
        )

    def activate(self, nproc: int) -> "FaultState":
        """Instantiate the plan for an ``nproc``-rank run."""
        return FaultState(self, nproc)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.deaths:
            parts.append(
                "deaths=" + ",".join(f"r{p}@{t:.3g}s" for p, t in sorted(self.deaths.items()))
            )
        if self.slowdown:
            parts.append(
                "slow=" + ",".join(f"r{p}x{f:g}" for p, f in sorted(self.slowdown.items()))
            )
        if self.op_fail_rate:
            parts.append(f"op_fail={self.op_fail_rate:g}")
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}x{self.delay_seconds:g}s")
        return " ".join(parts)


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
            raise ValueError("a FaultPlan must leave at least one rank alive")
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

    def death_time(self, rank: int) -> float | None:
        """Virtual time at which ``rank`` dies, or None."""
        t = self.plan.deaths.get(rank)
        return float(t) if t is not None else None

    def draw_failures(self, rank: int) -> int:
        """Consecutive transient failures of one op before it succeeds.

        Raises :class:`FaultError` once ``max_retries`` attempts in a
        row have failed -- the op is treated as permanently broken.
        """
        rate = self.plan.op_fail_rate
        if rate <= 0.0:
            return 0
        n = 0
        while self.rng.random() < rate:
            n += 1
            if n >= self.plan.max_retries:
                raise FaultError(
                    f"rank {rank}: one-sided op failed {n} consecutive "
                    f"times (op_fail_rate={rate}); retries exhausted"
                )
        return n

    def draw_ack_lost(self, rank: int, nfailures: int) -> int:
        """How many of ``nfailures`` failed attempts applied their mutation."""
        if nfailures <= 0 or self.plan.ack_loss_rate <= 0.0:
            return 0
        lost = int(self.rng.binomial(nfailures, self.plan.ack_loss_rate))
        self.acks_lost[rank] += lost
        return lost

    def draw_delay(self, rank: int) -> float:
        """Injected delivery delay (seconds) for one op; usually 0."""
        if self.plan.delay_rate <= 0.0:
            return 0.0
        if self.rng.random() >= self.plan.delay_rate:
            return 0.0
        d = float(self.plan.delay_seconds * self.rng.random())
        self.delay_time[rank] += d
        return d

    def backoff(self, attempt: int) -> float:
        """Exponential backoff wait before retry ``attempt`` (0-based)."""
        return float(self.plan.backoff_base * self.plan.backoff_factor**attempt)

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
        return time + float(self.plan.delay_seconds * self.rng.random())

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
class SCFFaultPlan:
    """Declarative numerical faults for the SCF / Fock-build layer.

    The runtime :class:`FaultPlan` breaks the *machine* (rank deaths,
    lost acks); this plan breaks the *numerics*: it corrupts class-kernel
    ERI quartet blocks and SCF iteration matrices with NaN/Inf, the
    failure mode of a buggy fast kernel or a bad FMA path on one node.
    The convergence guard (:mod:`repro.scf.guard`) must detect and rescue
    every corruption -- that is the ``repro chaos --family scf`` gate.

    Corruption only targets the rows the class kernel computes inside the
    production Fock build (:func:`repro.integrals.class_batch.jk_from_plan`)
    -- never stored rows, rescued rows or the reference per-primitive
    kernel -- so the guard's ``reference_eri`` fallback (and the
    per-quartet rescue) genuinely repairs the build.

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

    seed: int = 0
    quartet_nan_rate: float = 0.0
    quartet_inf_rate: float = 0.0
    fock_nan_iterations: tuple[int, ...] = ()
    density_nan_iterations: tuple[int, ...] = ()
    max_corruptions: int = 0

    def __post_init__(self) -> None:
        for name in ("quartet_nan_rate", "quartet_inf_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("fock_nan_iterations", "density_nan_iterations"):
            for it in getattr(self, name):
                if it < 1:
                    raise ValueError(
                        f"{name} entries are 1-based iteration numbers, got {it}"
                    )
        if self.max_corruptions < 0:
            raise ValueError(
                f"max_corruptions must be >= 0, got {self.max_corruptions}"
            )

    @property
    def has_faults(self) -> bool:
        return bool(
            self.quartet_nan_rate
            or self.quartet_inf_rate
            or self.fock_nan_iterations
            or self.density_nan_iterations
        )

    def activate(self) -> "SCFFaultState":
        return SCFFaultState(self)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.quartet_nan_rate:
            parts.append(f"quartet_nan={self.quartet_nan_rate:g}")
        if self.quartet_inf_rate:
            parts.append(f"quartet_inf={self.quartet_inf_rate:g}")
        if self.fock_nan_iterations:
            parts.append(
                "fock_nan@it=" + ",".join(str(i) for i in self.fock_nan_iterations)
            )
        if self.density_nan_iterations:
            parts.append(
                "density_nan@it="
                + ",".join(str(i) for i in self.density_nan_iterations)
            )
        if self.max_corruptions:
            parts.append(f"max={self.max_corruptions}")
        return " ".join(parts)


@dataclass(frozen=True)
class BuildFaults:
    """The quartet corruptions of one Fock build, drawn up front."""

    #: victim plan rows, ascending
    rows: np.ndarray
    #: the NaN or Inf each victim gets
    values: np.ndarray
    #: position in the victim's block, as a fraction of the block size
    where: np.ndarray

    def corrupt_rows(self, blocks: np.ndarray, row0: int) -> int:
        """Corrupt in place the victims among the stacked ``blocks`` of
        plan rows ``[row0, row0 + len(blocks))``; returns how many."""
        lo, hi = np.searchsorted(self.rows, (row0, row0 + len(blocks)))
        for i in range(lo, hi):
            block = blocks[self.rows[i] - row0]
            block.flat[int(self.where[i] * block.size)] = self.values[i]
        return int(hi - lo)


class SCFFaultState:
    """An activated :class:`SCFFaultPlan` with its seeded rng and counters."""

    def __init__(self, plan: SCFFaultPlan):
        self.plan = plan
        #: drives the matrix faults; quartet faults reseed per build
        self.rng = np.random.default_rng(plan.seed)
        #: Fock builds drawn so far (the ordinal of the next one)
        self.builds = 0
        #: class-kernel ERI blocks corrupted (NaN or Inf)
        self.quartets_corrupted = 0
        #: SCF matrices (Fock/density) corrupted
        self.matrices_corrupted = 0
        #: (iteration, target) matrix faults that already fired
        self._fired: set[tuple[int, str]] = set()

    def _budget_left(self) -> int | None:
        """Corruptions still allowed (None = unlimited)."""
        cap = self.plan.max_corruptions
        if cap == 0:
            return None
        return max(0, cap - self.quartets_corrupted - self.matrices_corrupted)

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

    def corrupt_matrix(
        self, a: np.ndarray, iteration: int, which: str
    ) -> np.ndarray:
        """Maybe NaN one element of an SCF matrix at ``iteration``.

        Each (iteration, which) fault fires at most once, so the
        guard's same-iteration rebuild sees a clean matrix.
        """
        targets = (
            self.plan.fock_nan_iterations
            if which == "fock"
            else self.plan.density_nan_iterations
        )
        key = (int(iteration), which)
        if iteration not in targets or key in self._fired:
            return a
        if a.size == 0 or self._budget_left() == 0:
            return a
        self._fired.add(key)
        out = np.array(a, dtype=float)
        flat = out.reshape(-1)
        flat[int(self.rng.integers(flat.size))] = np.nan
        self.matrices_corrupted += 1
        return out

    def summary(self) -> dict:
        """Corruption counters for reports and the chaos CLI."""
        return {
            "quartets_corrupted": int(self.quartets_corrupted),
            "matrices_corrupted": int(self.matrices_corrupted),
            "plan": self.plan.describe(),
        }


def random_scf_plan(seed: int, quartet_nan_rate: float = 0.02) -> SCFFaultPlan:
    """Seeded random :class:`SCFFaultPlan` for ``repro chaos --family scf``.

    Splits the corruption rate between NaN and Inf and NaNs the Fock
    matrix on one early iteration; the same seed always yields the same
    plan.
    """
    rng = np.random.default_rng(seed)
    return SCFFaultPlan(
        seed=seed,
        quartet_nan_rate=quartet_nan_rate / 2,
        quartet_inf_rate=quartet_nan_rate / 2,
        fock_nan_iterations=(int(rng.integers(2, 5)),),
        max_corruptions=64,
    )


def random_plan(
    seed: int,
    nproc: int,
    horizon: float,
    ndeaths: int = 1,
    nstragglers: int = 1,
    slow_factor: float = 3.0,
    op_fail_rate: float = 0.05,
    delay_rate: float = 0.05,
    delay_seconds: float = 100e-6,
) -> FaultPlan:
    """Seeded random :class:`FaultPlan` for an ``nproc``-rank run.

    ``horizon`` is the fault-free makespan: deaths are placed uniformly
    in ``[0.1, 0.7] * horizon`` so they land mid-execution.  The same
    ``(seed, nproc, horizon, ...)`` always yields the same plan -- the
    contract behind ``repro chaos --seed``.
    """
    if ndeaths >= nproc:
        raise ValueError(f"cannot kill {ndeaths} of {nproc} ranks (need a survivor)")
    rng = np.random.default_rng(seed)
    victims = rng.choice(nproc, size=ndeaths, replace=False) if ndeaths else []
    deaths = {
        int(p): float(horizon * rng.uniform(0.1, 0.7)) for p in victims
    }
    alive = [p for p in range(nproc) if p not in deaths]
    nstrag = min(nstragglers, len(alive))
    stragglers = rng.choice(alive, size=nstrag, replace=False) if nstrag else []
    slowdown = {
        int(p): float(rng.uniform(1.5, max(slow_factor, 1.5))) for p in stragglers
    }
    return FaultPlan(
        seed=seed,
        slowdown=slowdown,
        deaths=deaths,
        op_fail_rate=op_fail_rate,
        delay_rate=delay_rate,
        delay_seconds=delay_seconds,
    )
