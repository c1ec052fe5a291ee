"""Per-process communication accounting for the simulated runtime.

Tracks, for every simulated process, the quantities the paper reports:

* Table VI: communication volume (bytes moved, *including* local
  transfers -- the paper measures totals including local for fairness),
* Table VII: number of Global Arrays one-sided calls,

plus the virtual clock each process accumulates.  Data movement itself is
performed by :class:`repro.runtime.ga.GlobalArray`; this class only does
cost/statistics bookkeeping so that numeric execution and timing-only
simulation share one accounting path.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.obs.flight import (
    CH_GA,
    CH_RETRY,
    CH_STEAL_D,
    CHANNELS,
    FlightRecorder,
    check_rank,
    check_ranks,
)
from repro.runtime.faults import FaultState
from repro.runtime.machine import MachineConfig


class CommStats:
    """Mutable per-process communication counters and clocks.

    Every charge carries a *channel* tag (see :mod:`repro.obs.flight`)
    and is recorded once, in the :class:`FlightRecorder`; the Table VI/VII
    counters :attr:`calls` / :attr:`bytes` are its per-rank sums over
    channels, so the two views cannot drift apart.

    When a :class:`~repro.runtime.faults.FaultState` is attached, every
    remote charge first consults it: transient failures re-send the
    payload (counted in the global Table VI/VII counters *and* on the
    ``retry`` channel, preserving the exact-decomposition invariant)
    and wait out an exponential backoff on the virtual clock; injected
    delivery delays are charged as ``retry``-channel time.
    """

    def __init__(
        self,
        nproc: int,
        config: MachineConfig,
        faults: FaultState | None = None,
    ):
        if nproc < 1:
            raise ValueError(f"need at least one process, got {nproc}")
        if faults is not None and faults.nproc != nproc:
            raise ValueError(
                f"fault state activated for {faults.nproc} ranks, run has {nproc}"
            )
        self.nproc = nproc
        self.config = config
        self.faults = faults
        #: per-rank/per-channel breakdown of everything charged below
        self.flight = FlightRecorder(nproc)
        self.remote_calls = np.zeros(nproc, dtype=np.int64)
        self.remote_bytes = np.zeros(nproc, dtype=np.int64)
        #: virtual per-process clock (seconds)
        self.clock = np.zeros(nproc)
        #: portion of the clock spent in communication
        self.comm_time = np.zeros(nproc)
        #: portion of the clock spent computing
        self.comp_time = np.zeros(nproc)

    @property
    def calls(self) -> np.ndarray:
        """Per-rank one-sided calls (Table VII): the channels' ``msgs``, read-only."""
        return _frozen(self.flight.totals("msgs"))

    @property
    def bytes(self) -> np.ndarray:
        """Per-rank bytes moved (Table VI): the channels' ``bytes``, read-only."""
        return _frozen(self.flight.totals("bytes"))

    def _check(self, proc: int) -> None:
        check_rank(proc, self.nproc)

    def _comm_seconds(self, nbytes, ncalls, remote: bool):
        """Time of one op (scalars) or of each op of a batch (arrays)."""
        if remote:
            return self.config.transfer_time(nbytes, ncalls)
        # local transfers still cost memory bandwidth; model as a
        # fraction of network transfer cost with no latency
        return nbytes / (10.0 * self.config.bandwidth)

    def _failed_attempts(self, proc: int, nbytes: float, ncalls: int) -> list[float]:
        """Draw ``proc``'s transient failures for one remote op and charge
        each failed attempt's re-sent payload to the remote counters,
        ``retries`` and the ``retry`` channel; returns each attempt's time
        (transfer + backoff), in attempt order, for the caller to clock."""
        waits = []
        for k in range(self.faults.draw_failures(proc)):
            dt = self.config.transfer_time(nbytes, ncalls) + self.faults.backoff(k)
            self.remote_calls[proc] += ncalls
            self.remote_bytes[proc] += int(nbytes)
            self.faults.retries[proc] += 1
            self.flight.record(proc, CH_RETRY, int(nbytes), ncalls, dt)
            waits.append(dt)
        return waits

    def charge_fault_attempts(
        self,
        proc: int,
        nbytes: float,
        ncalls: int = 1,
        want_acks: bool = False,
    ) -> int:
        """Draw and charge transient failures + delay for one remote op.

        Each failed attempt re-sends the payload and waits out an
        exponential backoff, both charged to the caller's virtual clock
        and recorded on the ``retry`` channel (payload bytes/calls also
        count toward the global Table VI/VII counters: they crossed the
        wire).  Returns the number of failed attempts whose mutation
        *applied* but whose ack was lost (only drawn when ``want_acks``
        -- the accumulate exactly-once hazard; see ``GlobalArray.acc``).
        """
        if self.faults is None:
            return 0
        self._check(proc)
        waits = self._failed_attempts(proc, nbytes, ncalls)
        for dt in waits:
            self.clock[proc] += dt
            self.comm_time[proc] += dt
        lost = self.faults.draw_ack_lost(proc, len(waits)) if want_acks else 0
        delay = self.faults.draw_delay(proc)
        if delay > 0.0:
            self.clock[proc] += delay
            self.comm_time[proc] += delay
            self.flight.record(proc, CH_RETRY, 0, 0, delay)
        return lost

    def charge_comm(
        self,
        proc: int,
        nbytes: float,
        ncalls: int = 1,
        remote: bool = True,
        channel: str = CH_GA,
        draw_faults: bool = True,
    ) -> float:
        """Account a communication operation; returns the time charged.

        ``draw_faults=False`` skips the fault consultation -- used by
        callers (``GlobalArray``) that already drew and charged this
        op's failures via :meth:`charge_fault_attempts`.
        """
        self._check(proc)
        if remote and draw_faults and self.faults is not None:
            self.charge_fault_attempts(proc, nbytes, ncalls)
        if remote:
            self.remote_calls[proc] += ncalls
            self.remote_bytes[proc] += int(nbytes)
        dt = self._comm_seconds(nbytes, ncalls, remote)
        self.clock[proc] += dt
        self.comm_time[proc] += dt
        self.flight.record(proc, channel, int(nbytes), ncalls, dt)
        return dt

    def charge_comm_batch(
        self,
        procs,
        nbytes,
        ncalls=1,
        channel=CH_GA,
        dt=None,
    ) -> None:
        """Account a batch of remote communication operations, in array order.

        Leaves ``self`` and the flight recorder exactly as one
        :meth:`charge_comm` per op would (``nbytes`` / ``ncalls``
        broadcast against ``procs``, which may repeat ranks; ``channel``
        is one name, or per op an index into
        :data:`~repro.obs.flight.CHANNELS`).  With a fault state
        attached the batch is resolved op by op: every op draws
        from the seeded RNG.

        A scheduler that resolves its own clocks (the centralized
        counter loop: queueing delays and compute interleave with the
        transfers) passes the seconds it charged per op as ``dt``; such
        ops draw no faults and leave ``clock`` to the caller.
        """
        procs = check_ranks(procs, self.nproc)
        n = procs.size
        nbytes = np.broadcast_to(np.asarray(nbytes, dtype=float), n)
        ncalls = np.broadcast_to(np.asarray(ncalls, dtype=np.int64), n)
        if dt is None:
            if self.faults is not None:
                channels = (
                    itertools.repeat(channel) if isinstance(channel, str)
                    else (CHANNELS[k] for k in channel)
                )
                for p, b, c, ch in zip(
                    procs.tolist(), nbytes.tolist(), ncalls.tolist(), channels
                ):
                    self.charge_comm(p, b, c, channel=ch)
                return
            dt = self.config.transfer_time(nbytes, ncalls)
            np.add.at(self.clock, procs, dt)
        nbytes = nbytes.astype(np.int64)
        np.add.at(self.remote_calls, procs, ncalls)
        np.add.at(self.remote_bytes, procs, nbytes)
        np.add.at(self.comm_time, procs, dt)
        self.flight.record_batch(procs, channel, nbytes, ncalls, dt)

    def charge_steal(
        self,
        proc: int,
        nbytes: float,
        ncalls: int = 1,
    ) -> float:
        """Account a steal transfer's counters; the scheduler applies the time.

        Unlike :meth:`charge_comm` this does *not* advance the clock --
        the work-stealing scheduler owns the thief's restart time and
        adds the returned transfer time itself (see ``run_work_stealing``).
        Transient-failure retries are folded into the returned time the
        same way (counted on the ``retry`` channel).
        """
        self._check(proc)
        extra = 0.0
        if self.faults is not None:
            for w in self._failed_attempts(proc, nbytes, ncalls):
                extra += w
        self.remote_calls[proc] += ncalls
        self.remote_bytes[proc] += int(nbytes)
        dt = self.config.transfer_time(nbytes, ncalls)
        self.flight.record(proc, CH_STEAL_D, int(nbytes), ncalls, dt)
        return dt + extra

    def charge_compute(self, proc: int, seconds: float) -> None:
        """Advance a process's clock by pure computation time."""
        self._check(proc)
        if seconds < 0:
            raise ValueError("negative compute time")
        self.clock[proc] += seconds
        self.comp_time[proc] += seconds

    def barrier(self) -> float:
        """Synchronize all clocks to the maximum; returns the barrier time."""
        t = float(self.clock.max())
        self.clock[:] = t
        return t

    # -- report helpers ------------------------------------------------------

    def volume_mb_per_process(self) -> float:
        """Average communication volume in MB/process (Table VI metric)."""
        return float(self.bytes.mean()) / 1e6

    def calls_per_process(self) -> float:
        """Average number of GA calls/process (Table VII metric)."""
        return float(self.calls.mean())

    def load_balance(self) -> float:
        """l = max/mean of the per-process clocks (Table VIII metric)."""
        avg = float(self.clock.mean())
        return float(self.clock.max()) / avg if avg > 0 else 1.0

    def summary(self) -> dict:
        total = self.comm_time + self.comp_time
        busy = float(total.sum())
        return {
            "nproc": self.nproc,
            "avg_volume_mb": self.volume_mb_per_process(),
            "avg_calls": self.calls_per_process(),
            "avg_comm_time": float(self.comm_time.mean()),
            "avg_comp_time": float(self.comp_time.mean()),
            "makespan": float(self.clock.max()),
            "load_balance": self.load_balance(),
            "comm_fraction": float(self.comm_time.sum()) / busy if busy > 0 else 0.0,
        }


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values
