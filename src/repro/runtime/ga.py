"""A Global-Arrays-like distributed array for the simulated runtime.

The real GTFock phrases all communication as one-sided ``GA_Get`` /
``GA_Put`` / ``GA_Acc`` operations on 2-D block-distributed arrays, plus
the queueing model of the ``NGA_Read_inc`` atomic counter NWChem's
centralized scheduler is built on.  This module reproduces those
semantics on a single host:

* data lives in one NumPy array (simulating the union of all process
  memories), partitioned by explicit row/column boundaries over a
  ``prow x pcol`` process grid;
* every access is attributed to the calling process, split per *owner
  block* touched (one GA call per owner, as in real GA strided access),
  and charged to the caller's virtual clock via
  :class:`~repro.runtime.network.CommStats`.

Payload integrity (``checksums=True``): every accumulate payload
carries a CRC-32 trailer, charged as 4 bytes of overhead per per-owner
transfer.  The receiver verifies the payload before applying it; a
mismatch (an attached :class:`~repro.runtime.sdc.SDCFaultState` can
corrupt payloads in flight) is rejected and the clean payload is
retransmitted on the ``retry`` flight channel -- silent wire corruption
becomes counted overhead instead of a wrong matrix.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.flight import CH_GA, CH_RETRY
from repro.runtime.network import CommStats
from repro.runtime.sdc import block_crc


def grid_shape(nproc: int) -> tuple[int, int]:
    """Near-square process grid factorization ``prow x pcol = nproc``."""
    if nproc < 1:
        raise ValueError(f"nproc must be >= 1, got {nproc}")
    prow = int(math.isqrt(nproc))
    while nproc % prow != 0:
        prow -= 1
    return prow, nproc // prow


def block_bounds(n: int, nblocks: int) -> np.ndarray:
    """Even 1-D partition boundaries: ``nblocks + 1`` cut points over n."""
    if nblocks < 1 or n < nblocks:
        raise ValueError(f"cannot cut {n} items into {nblocks} blocks")
    return np.array([round(i * n / nblocks) for i in range(nblocks + 1)], dtype=int)


class GlobalArray:
    """2-D block-distributed matrix with one-sided access accounting.

    Parameters
    ----------
    stats:
        Shared communication accounting (one per simulated run).
    rows, cols:
        Global matrix shape.
    row_bounds, col_bounds:
        Partition boundaries; process ``(i, j)`` of the grid owns
        ``[row_bounds[i]:row_bounds[i+1], col_bounds[j]:col_bounds[j+1]]``.
        The grid shape is implied by the boundary lengths.
    checksums:
        CRC-32 trailer on every accumulate payload, verified at the
        receiver; 4 bytes of charged overhead per per-owner transfer.
    sdc:
        Optional :class:`~repro.runtime.sdc.SDCFaultState` that may
        corrupt accumulate payloads in flight.
    monitor:
        Optional :class:`~repro.runtime.sdc.IntegrityMonitor` that
        tallies payload checks/detections/retransmits run-wide.
    """

    def __init__(
        self,
        stats: CommStats,
        rows: int,
        cols: int,
        row_bounds: np.ndarray,
        col_bounds: np.ndarray,
        *,
        checksums: bool = False,
        sdc=None,
        monitor=None,
    ):
        self.stats = stats
        self.rows = rows
        self.cols = cols
        self.row_bounds = np.asarray(row_bounds, dtype=int)
        self.col_bounds = np.asarray(col_bounds, dtype=int)
        if self.row_bounds[0] != 0 or self.row_bounds[-1] != rows:
            raise ValueError("row_bounds must span [0, rows]")
        if self.col_bounds[0] != 0 or self.col_bounds[-1] != cols:
            raise ValueError("col_bounds must span [0, cols]")
        if np.any(np.diff(self.row_bounds) <= 0) or np.any(np.diff(self.col_bounds) <= 0):
            raise ValueError("partition boundaries must be strictly increasing")
        self.prow = len(self.row_bounds) - 1
        self.pcol = len(self.col_bounds) - 1
        self.data = np.zeros((rows, cols))
        #: tags of accumulate ops already applied (exactly-once dedup)
        self._applied_tags: set = set()
        #: open epochs: staged (r0, c0, block) accumulates, not yet visible
        self._staged: dict = {}
        self.checksums = checksums
        self.sdc = sdc
        self.monitor = monitor
        #: accumulate payloads CRC-verified at the receiver
        self.checksum_checks = 0
        #: payloads rejected for a CRC mismatch (and retransmitted)
        self.checksum_rejects = 0

    @property
    def nproc(self) -> int:
        return self.prow * self.pcol

    def proc_id(self, gi: int, gj: int) -> int:
        """Linear process id of grid position (gi, gj) (row major)."""
        return gi * self.pcol + gj

    def grid_coords(self, proc: int) -> tuple[int, int]:
        return divmod(proc, self.pcol)

    def owner(self, i: int, j: int) -> int:
        """Linear id of the process owning element (i, j)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        gi = int(np.searchsorted(self.row_bounds, i, side="right")) - 1
        gj = int(np.searchsorted(self.col_bounds, j, side="right")) - 1
        return self.proc_id(gi, gj)

    def local_slice(self, proc: int) -> tuple[slice, slice]:
        """The (row, col) slices owned by ``proc``."""
        gi, gj = self.grid_coords(proc)
        return (
            slice(int(self.row_bounds[gi]), int(self.row_bounds[gi + 1])),
            slice(int(self.col_bounds[gj]), int(self.col_bounds[gj + 1])),
        )

    # -- one-sided operations -------------------------------------------------

    def _owners_touched(self, r0: int, r1: int, c0: int, c1: int, proc: int):
        """Split a rectangular request into per-owner sub-rectangles.

        Yields ``(owner, rows_slice, cols_slice)``; mirrors how a GA
        strided get issues one transfer per owning process.
        """
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
            raise IndexError(f"bad request [{r0}:{r1}, {c0}:{c1}]")
        gi0 = int(np.searchsorted(self.row_bounds, r0, side="right")) - 1
        gi1 = int(np.searchsorted(self.row_bounds, r1 - 1, side="right")) - 1
        gj0 = int(np.searchsorted(self.col_bounds, c0, side="right")) - 1
        gj1 = int(np.searchsorted(self.col_bounds, c1 - 1, side="right")) - 1
        for gi in range(gi0, gi1 + 1):
            rs = slice(
                max(r0, int(self.row_bounds[gi])),
                min(r1, int(self.row_bounds[gi + 1])),
            )
            for gj in range(gj0, gj1 + 1):
                cs = slice(
                    max(c0, int(self.col_bounds[gj])),
                    min(c1, int(self.col_bounds[gj + 1])),
                )
                yield self.proc_id(gi, gj), rs, cs

    def _charge(
        self,
        proc: int,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        channel: str,
        want_acks: bool = False,
        pad_bytes: int = 0,
    ) -> int:
        """Charge a request split per owner; returns ack-lost attempt count.

        When a fault state is attached, each per-owner transfer first
        draws its transient failures (retries charged on the ``retry``
        channel by :meth:`CommStats.charge_fault_attempts`); the base
        charge then skips the fault consultation to avoid double draws.
        ``pad_bytes`` is per-owner framing overhead (the CRC trailer).
        """
        es = self.stats.config.element_size
        lost = 0
        for owner, rs, cs in self._owners_touched(r0, r1, c0, c1, proc):
            nbytes = (rs.stop - rs.start) * (cs.stop - cs.start) * es + pad_bytes
            remote = owner != proc
            if remote and self.stats.faults is not None:
                lost += self.stats.charge_fault_attempts(
                    proc, nbytes, ncalls=1, want_acks=want_acks
                )
            self.stats.charge_comm(
                proc, nbytes, ncalls=1, remote=remote,
                channel=channel, draw_faults=False,
            )
        return lost

    def get(
        self, proc: int, r0: int, r1: int, c0: int, c1: int, channel: str = CH_GA
    ) -> np.ndarray:
        """One-sided read of ``[r0:r1, c0:c1]`` by ``proc`` (GA_Get)."""
        self._charge(proc, r0, r1, c0, c1, channel)
        return self.data[r0:r1, c0:c1].copy()

    def put(
        self, proc: int, r0: int, c0: int, block: np.ndarray, channel: str = CH_GA
    ) -> None:
        """One-sided write (GA_Put).  Idempotent: retries are harmless."""
        r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
        self._charge(proc, r0, r1, c0, c1, channel)
        self.data[r0:r1, c0:c1] = block

    def acc(
        self,
        proc: int,
        r0: int,
        c0: int,
        block: np.ndarray,
        channel: str = CH_GA,
        tag=None,
        epoch=None,
    ) -> None:
        """One-sided atomic accumulate (GA_Acc): ``A[region] += block``.

        ``GA_Acc`` is *not* idempotent, which makes it the one op where
        transient failures are dangerous: a failed attempt may have
        applied its addition before the ack was lost, and a blind retry
        then double-counts.  Two protocol layers make it exactly-once:

        * ``tag`` -- a unique op id the target remembers; attempts (and
          any later blind retry) carrying an already-applied tag are
          dropped.  Untagged accumulates under injected ack loss
          double-apply -- deliberately, so tests can demonstrate the
          hazard the tags close.
        * ``epoch`` -- stage the addition into an open epoch (see
          :meth:`begin_epoch`) instead of applying it; only
          :meth:`commit_epoch` makes it visible.  A rank that dies
          mid-flush leaves an uncommitted epoch behind, so its partial
          flush is never double-counted against the recovery re-flush.

        With ``checksums`` enabled, the payload's CRC-32 trailer is
        verified at the receiver before the addition is applied; a
        corrupted-in-flight payload is rejected and retransmitted on
        the ``retry`` channel, so the applied value is always clean.
        Without checksums, an attached ``sdc`` state corrupts payloads
        *silently* -- deliberately, so tests can demonstrate the hazard
        the trailer closes.
        """
        r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
        pad = 4 if self.checksums else 0
        lost = self._charge(
            proc, r0, r1, c0, c1, channel, want_acks=True, pad_bytes=pad
        )
        if self.sdc is not None:
            wire = self.sdc.corrupt_payload(block)
        else:
            wire = block
        if self.checksums:
            self.checksum_checks += 1
            if self.monitor is not None:
                self.monitor.record_check("ga_payload_crc")
            if block_crc(wire) != block_crc(block):
                # receiver rejects the damaged payload; the clean one is
                # retransmitted (charged as a retry) and applied instead
                self.checksum_rejects += 1
                self._charge(
                    proc, r0, r1, c0, c1, CH_RETRY, pad_bytes=pad
                )
                if self.monitor is not None:
                    self.monitor.record_detection("ga_payload")
                    self.monitor.record_recovery("retransmit")
                wire = block
        block = wire
        if tag is not None:
            if tag in self._applied_tags:
                return
            self._applied_tags.add(tag)
            times = 1  # ack-lost attempts were deduplicated at the target
        else:
            times = 1 + lost  # every applied-but-unacked attempt double-counts
        if times == 0:
            return
        contribution = block if times == 1 else times * block
        if epoch is not None:
            try:
                self._staged[epoch].append((r0, c0, contribution.copy()))
            except KeyError:
                raise KeyError(f"epoch {epoch!r} is not open") from None
        else:
            self.data[r0:r1, c0:c1] += contribution

    # -- epoch protocol (exactly-once flush) ----------------------------------

    def begin_epoch(self, key) -> None:
        """Open an accumulate epoch: subsequent ``acc(..., epoch=key)``
        calls stage their additions invisibly until commit."""
        if key in self._staged:
            raise ValueError(f"epoch {key!r} is already open")
        self._staged[key] = []

    def commit_epoch(self, key) -> int:
        """Atomically apply every staged addition of an epoch; returns
        the number of staged ops committed."""
        staged = self._staged.pop(key)
        for r0, c0, block in staged:
            self.data[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] += block
        return len(staged)

    def abort_epoch(self, key) -> int:
        """Discard an epoch's staged additions (e.g. its rank died
        mid-flush); returns how many staged ops were dropped."""
        return len(self._staged.pop(key, []))

    # -- whole-array helpers (no accounting; test/setup use) -------------------

    def load(self, full: np.ndarray) -> None:
        """Initialize the distributed contents (collective setup, free)."""
        if full.shape != (self.rows, self.cols):
            raise ValueError(f"shape {full.shape} != {(self.rows, self.cols)}")
        self.data[:] = full

    def to_numpy(self) -> np.ndarray:
        """Gather the full matrix (verification helper, not accounted)."""
        return self.data.copy()


def counter_service(
    clock: float, server_free: float, latency: float, queue_service: float
) -> tuple[float, float]:
    """One ``NGA_Read_inc`` issued at ``clock``: ``(dt, server_free)``.

    The request reaches the owner a latency later, queues behind the
    accesses already outstanding (``server_free`` is when the owner can
    take it), is served for ``queue_service`` and answered a latency
    after that.  ``dt`` is what the caller's clock pays.  Pure: the
    centralized scheduler's dispatch loop resolves the counter through
    it.
    """
    start = clock + latency
    if start < server_free:
        start = server_free
    server_free = start + queue_service
    return (server_free + latency) - clock, server_free
