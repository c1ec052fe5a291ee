"""Per-rank, per-channel flight recorder for the simulated runtime.

The paper's evidence is *per-process* accounting: communication volumes
(Table VI), one-sided call counts (Table VII), load balance (Table VIII),
and the Sec III-G model that predicts them.  :class:`CommStats` keeps the
global totals; this module splits every charge by **channel** -- the
semantic kind of traffic -- so a run can answer "which rank, which
channel, how far off the model?".

Channel taxonomy (see ``docs/OBSERVABILITY.md``):

=============== ============================================================
channel         traffic
=============== ============================================================
``prefetch_get`` GTFock's one-time D-footprint fetch (Algorithm 4, line 3)
``task_get``     NWChem's per-task D atom-block fetches (Algorithm 2)
``fock_acc``     accumulation of local J/K contributions into distributed F
``steal_d``      the victim's D-buffer copy paid on a first steal (Eq 9's s)
``steal_f``      a thief's F flush outside its own static-partition footprint
``steal_task``   queue atomics of the steal protocol (ops, no payload bytes)
``queue``        local task-queue atomics outside a steal
``counter``      ``NGA_Read_inc`` hits on the centralized scheduler counter
``retry``        fault-injected transient-op retries: re-sent payloads plus
                 exponential-backoff and injected-delay time (chaos runs)
``barrier`` / ``allreduce`` / ``broadcast`` / ``reduce_scatter``  collectives
                 (the distributed SUMMA / purification charge two of them)
``ga``           untagged :class:`GlobalArray` traffic (default channel)
=============== ============================================================

Two invariants make the recorder trustworthy (tested in
``tests/test_flight.py``):

* **exact decomposition** -- per rank, ``msgs`` and ``bytes`` summed over
  channels *are* ``CommStats.calls`` / ``CommStats.bytes``: every counted
  call is recorded once, on one channel, and the global counters are
  read from the recorder;
* **ops are separate** -- scheduler atomics that the paper does *not*
  count as one-sided GA calls (queue probes, steal transactions) live in
  the ``ops`` field and never contaminate the Table VI/VII counters.

Timelines come from the :class:`~repro.obs.trace.Tracer`; the recorder
keeps counters only.
"""

from __future__ import annotations

import numpy as np

#: GTFock prefetch of the D footprint.
CH_PREFETCH_GET = "prefetch_get"
#: NWChem per-task D fetches (no prefetch is possible, Sec II-F).
CH_TASK_GET = "task_get"
#: Accumulate local J/K contributions into the distributed F.
CH_FOCK_ACC = "fock_acc"
#: Task descriptors moved by the steal protocol (queue atomics).
CH_STEAL_TASK = "steal_task"
#: Victim D-buffer copy on a first steal from a victim.
CH_STEAL_D = "steal_d"
#: Thief F traffic outside its own static-partition footprint.
CH_STEAL_F = "steal_f"
#: Local queue atomics outside the steal protocol.
CH_QUEUE = "queue"
#: Centralized-scheduler shared-counter accesses.
CH_COUNTER = "counter"
#: Fault-injected transient-op retries (re-sent bytes, backoff + delay time).
CH_RETRY = "retry"
CH_BARRIER = "barrier"
CH_ALLREDUCE = "allreduce"
CH_BROADCAST = "broadcast"
CH_REDUCE_SCATTER = "reduce_scatter"
#: Default for untagged GlobalArray access.
CH_GA = "ga"

#: Canonical report ordering of every known channel.
CHANNELS = (
    CH_PREFETCH_GET,
    CH_TASK_GET,
    CH_FOCK_ACC,
    CH_STEAL_D,
    CH_STEAL_F,
    CH_STEAL_TASK,
    CH_QUEUE,
    CH_COUNTER,
    CH_RETRY,
    CH_BARRIER,
    CH_ALLREDUCE,
    CH_BROADCAST,
    CH_REDUCE_SCATTER,
    CH_GA,
)

_FIELDS = ("msgs", "bytes", "time", "ops")


def check_rank(rank: int, nproc: int) -> None:
    """Reject a rank outside ``[0, nproc)``.

    NumPy indexing would wrap ``-1`` around and silently charge the
    last rank's counters.
    """
    if not 0 <= rank < nproc:
        raise IndexError(f"process {rank} out of range [0, {nproc})")


def check_ranks(ranks, nproc: int) -> np.ndarray:
    """``ranks`` as a 1-D index array; same rule as :func:`check_rank`,
    applied once per batch and naming the first offender."""
    ranks = np.asarray(ranks, dtype=np.intp)
    bad = np.flatnonzero((ranks < 0) | (ranks >= nproc))
    if bad.size:
        check_rank(int(ranks[bad[0]]), nproc)
    return ranks


class _ChannelCounters:
    """Per-rank counters of one channel."""

    __slots__ = ("msgs", "bytes", "time", "ops")

    def __init__(self, nproc: int):
        self.msgs = np.zeros(nproc, dtype=np.int64)
        self.bytes = np.zeros(nproc, dtype=np.int64)
        self.time = np.zeros(nproc)
        self.ops = np.zeros(nproc, dtype=np.int64)


class FlightRecorder:
    """Per-rank, per-channel message/byte/time accounting.

    Parameters
    ----------
    nproc:
        Number of simulated ranks.
    """

    def __init__(self, nproc: int):
        if nproc < 1:
            raise ValueError(f"need at least one rank, got {nproc}")
        self.nproc = nproc
        self._channels: dict[str, _ChannelCounters] = {}

    # -- recording -----------------------------------------------------------

    def _counters(self, channel: str) -> _ChannelCounters:
        c = self._channels.get(channel)
        if c is None:
            c = _ChannelCounters(self.nproc)
            self._channels[channel] = c
        return c

    def record(
        self, rank: int, channel: str, nbytes: int, ncalls: int, dt: float
    ) -> None:
        """Account a counted communication operation (a GA call)."""
        check_rank(rank, self.nproc)
        c = self._counters(channel)
        c.msgs[rank] += ncalls
        c.bytes[rank] += int(nbytes)
        c.time[rank] += dt

    def record_batch(self, ranks, channel, nbytes, ncalls, dt) -> None:
        """Account a batch of counted operations, in array order.

        Leaves the recorder exactly as one :meth:`record` per entry
        would: counters accumulate in array order (``np.add.at`` is
        unbuffered, so a rank's float ``time`` sum rounds as it does op
        by op).  ``channel`` is one name for the whole batch, or per op
        an index into :data:`CHANNELS` (ops of several channels
        interleaved in event order); the other fields broadcast against
        ``ranks``.
        """
        ranks = check_ranks(ranks, self.nproc)
        n = ranks.size
        if n == 0:
            return
        nbytes = np.broadcast_to(np.asarray(nbytes).astype(np.int64), n)
        ncalls = np.broadcast_to(np.asarray(ncalls, dtype=np.int64), n)
        dt = np.broadcast_to(np.asarray(dt, dtype=float), n)
        if isinstance(channel, str):
            groups = [(channel, slice(None))]
        else:
            channel = np.asarray(channel)
            groups = [(CHANNELS[k], channel == k) for k in np.unique(channel)]
        for name, sel in groups:
            c = self._counters(name)
            np.add.at(c.msgs, ranks[sel], ncalls[sel])
            np.add.at(c.bytes, ranks[sel], nbytes[sel])
            np.add.at(c.time, ranks[sel], dt[sel])

    def record_ops(self, channel: str, nops: np.ndarray) -> None:
        """Account scheduler atomics that are *not* one-sided GA calls:
        ``nops[rank]`` on every rank."""
        self._counters(channel).ops += nops

    # -- queries -------------------------------------------------------------

    def channels(self) -> list[str]:
        """Channels seen so far, in canonical report order."""
        seen = set(self._channels)
        ordered = [ch for ch in CHANNELS if ch in seen]
        ordered += sorted(seen - set(CHANNELS))
        return ordered

    def per_rank(self, channel: str, field: str = "bytes") -> np.ndarray:
        """Per-rank values of one channel (zeros if never recorded)."""
        if field not in _FIELDS:
            raise ValueError(f"unknown field {field!r}; one of {_FIELDS}")
        c = self._channels.get(channel)
        if c is None:
            dtype = float if field == "time" else np.int64
            return np.zeros(self.nproc, dtype=dtype)
        return getattr(c, field).copy()

    def matrix(self, field: str = "bytes") -> tuple[list[str], np.ndarray]:
        """``(channels, values)`` with ``values[rank, channel]``."""
        chans = self.channels()
        if not chans:
            return [], np.zeros((self.nproc, 0))
        out = np.stack([self.per_rank(ch, field) for ch in chans], axis=1)
        return chans, out

    def totals(self, field: str = "bytes") -> np.ndarray:
        """Per-rank totals over all channels."""
        _, m = self.matrix(field)
        if m.size == 0:
            dtype = float if field == "time" else np.int64
            return np.zeros(self.nproc, dtype=dtype)
        return m.sum(axis=1)

    def channel_totals(self, field: str = "bytes") -> dict[str, float]:
        """All-rank total per channel."""
        return {
            ch: (
                float(self.per_rank(ch, field).sum())
                if field == "time"
                else int(self.per_rank(ch, field).sum())
            )
            for ch in self.channels()
        }

    # -- consistency ---------------------------------------------------------

    def check_against(self, stats) -> None:
        """Assert per-rank channel sums equal ``stats.calls`` / ``bytes``.

        ``CommStats`` derives those counters from its own recorder, so
        against it this holds by construction; it raises
        ``AssertionError`` naming the first drifting rank otherwise.
        """
        for field, counted in (("msgs", stats.calls), ("bytes", stats.bytes)):
            drift = np.flatnonzero(self.totals(field) != counted)
            if drift.size:
                raise AssertionError(
                    f"flight {field} != CommStats at rank {int(drift[0])}")

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict:
        chans, m_bytes = self.matrix("bytes")
        _, m_msgs = self.matrix("msgs")
        _, m_time = self.matrix("time")
        _, m_ops = self.matrix("ops")
        return {
            "nproc": self.nproc,
            "channels": chans,
            "bytes": m_bytes.tolist(),
            "msgs": m_msgs.tolist(),
            "time": m_time.tolist(),
            "ops": m_ops.tolist(),
        }

    def export_metrics(self, registry=None):
        """Export the channel matrix as labelled counters/gauges."""
        from repro.obs.ambient import get_metrics

        reg = registry if registry is not None else get_metrics()
        specs = (
            ("msgs_total", "msgs", "tagged one-sided calls", True),
            ("bytes_total", "bytes", "tagged bytes moved", True),
            ("ops_total", "ops", "scheduler atomics (not GA calls)", True),
            ("time_seconds", "time", "simulated seconds attributed", False),
        )
        for suffix, field, help_, is_counter in specs:
            name = f"repro_flight_{suffix}"
            if is_counter:
                metric = reg.counter(name, help_, labelnames=("proc", "channel"))
                for ch in self.channels():
                    vals = self.per_rank(ch, field)
                    for p in range(self.nproc):
                        if vals[p]:
                            metric.inc(int(vals[p]), proc=p, channel=ch)
            else:
                metric = reg.gauge(name, help_, labelnames=("proc", "channel"))
                for ch in self.channels():
                    vals = self.per_rank(ch, field)
                    for p in range(self.nproc):
                        if vals[p]:
                            metric.set(float(vals[p]), proc=p, channel=ch)
        return reg
