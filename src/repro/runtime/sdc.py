"""Silent-data-corruption (SDC) fault family + the integrity layer.

PR 4/5/9 made the stack survive *loud* failures: dead ranks, NaN
numerics, killed workers.  This module covers the fourth leg -- silent
corruption that still parses: a bit-flipped checkpoint file, a torn
store segment, a damaged accumulate payload, a memory flip in the Fock
matrix between iterations.  Nothing raises; the bytes are simply wrong.

Two halves, mirroring :mod:`repro.runtime.faults`:

* **Injection** -- :class:`SDCFaultPlan` / :class:`SDCFaultState`, a
  declarative seeded plan that flips bits in checkpoint files
  post-write, on-disk ERI store segments, GA accumulate payloads in
  flight, and in-memory F/D matrices between SCF iterations.  One
  seeded :class:`numpy.random.Generator` drives every draw, so a chaos
  run is reproducible from its seed alone.  In-memory matrix flips
  target *exponent* bits of a significant element (and off-diagonal
  positions for symmetric targets), modelling the SDC that matters: a
  low-mantissa flip is numerically harmless and genuinely below any
  detector's floor, while an exponent flip silently wrecks the run.
* **Detection** -- :class:`IntegrityMonitor`, the run-wide accounting
  object behind the ``integrity=`` knob: cheap ABFT-style algebraic
  detectors on the hot path (F/D symmetry residual, Tr(D S) = n_occ)
  plus counters for every checksum layer (store CRCs, checkpoint
  digests, GA payload checksums) and every recovery taken (recompute,
  rollback, quarantine).  :func:`export_integrity
  <repro.obs.metrics.export_integrity>` bridges the counters to
  metrics; ``repro chaos --family sdc`` asserts zero silent
  acceptances (:mod:`repro.fock.chaos`); ``repro verify`` audits a
  directory offline (:mod:`repro.obs.verify`).

Checksums use CRC-32 (:func:`zlib.crc32` -- zero-dependency and
C-speed; a production deployment would use hardware CRC32C, same
framing) for per-segment/per-payload framing and SHA-256 for whole-file
digests.  See ``docs/ROBUSTNESS.md`` ("Silent data corruption") for
the threat model, detector costs, and the recovery ladder.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.runtime.faults import SeededFaultState, SeededPlan, declare


class IntegrityError(RuntimeError):
    """Corruption was detected and no recovery rung could repair it.

    The service worker maps this to a non-retryable failure
    (quarantine): re-running a job against the same corrupt state
    cannot help, a human must look at the artifacts.
    """


# ---------------------------------------------------------------------------
# checksum helpers (GA payloads, checkpoints)
# ---------------------------------------------------------------------------


def block_crc(a: np.ndarray) -> int:
    """CRC-32 of one array's float64 bytes (payload/block framing)."""
    return zlib.crc32(np.ascontiguousarray(a, dtype=np.float64).reshape(-1))


def flip_bit_in_file(
    path: str | Path,
    rng: np.random.Generator,
    spans: list[tuple[int, int]] | None = None,
) -> int:
    """Flip one seeded-random bit of a file in place; returns the offset.

    With ``spans`` (``[lo, hi)`` byte ranges) the byte is drawn from
    those ranges only, with one draw over their concatenation.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if spans is None:
        spans = [(0, len(data))]
    total = sum(hi - lo for lo, hi in spans)
    if not total:
        raise ValueError(f"cannot corrupt empty file {path}")
    pos = int(rng.integers(total))
    for lo, hi in spans:
        if pos < hi - lo:
            pos += lo
            break
        pos -= hi - lo
    data[pos] ^= 1 << int(rng.integers(8))
    path.write_bytes(bytes(data))
    return pos


def zip_member_spans(path: str | Path) -> list[tuple[int, int]]:
    """The byte range of every member's stored data in a zip file (an
    ``.npz`` checkpoint): what each entry's CRC-32 covers.

    A flip outside them -- in a local header's extra field, say -- lands
    in bytes ``zipfile`` never reads.
    """
    import struct
    import zipfile

    spans = []
    with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
        for info in zf.infolist():
            # local header: 30 fixed bytes, then name and extra fields,
            # whose lengths are the last two 2-byte fields
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            lo = info.header_offset + 30 + name_len + extra_len
            spans.append((lo, lo + info.compress_size))
    return spans


def _flip_exponent_bit(x: float, rng: np.random.Generator) -> float:
    """Flip one exponent bit of a float64 -- a large, *finite-looking*
    change (the value scales by a power of two, it does not NaN)."""
    bits = np.float64(x).view(np.uint64)
    bit = 52 + int(rng.integers(11))  # one of the 11 exponent bits
    return float((bits ^ np.uint64(1) << np.uint64(bit)).view(np.float64))


# ---------------------------------------------------------------------------
# the sdc fault family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SDCFaultPlan(SeededPlan):
    """Declarative silent-corruption faults, seeded like every plan.

    Parameters
    ----------
    seed:
        Seed of the generator behind every corruption draw.
    checkpoint_flip_rate:
        Per written snapshot file, the probability that one random bit
        of the ``.npz`` is flipped *after* the atomic rename (the
        bad-disk / torn-page model).  The file still exists and may
        still parse -- only the payload digest can tell.
    store_flips:
        Number of distinct on-disk ERI store segments to bit-flip (drawn
        once per store, via :meth:`SDCFaultState.corrupt_store_dir`).
    payload_flip_rate:
        Per GA accumulate, the probability the payload is corrupted in
        flight (one exponent-bit flip of one element).
    fock_flip_iterations / density_flip_iterations:
        SCF iteration numbers (1-based) at which one significant
        element of the freshly built Fock (resp. density) matrix gets
        an exponent-bit flip -- the in-memory corruption the ABFT
        detectors must catch.  Each (iteration, target) fault fires
        exactly once, so a detected-and-rebuilt matrix is clean.
    max_corruptions:
        Hard cap on total injected corruptions (0 = unlimited).
    """

    checkpoint_flip_rate: float = declare("rate", 0.0, "ckpt_flip")
    store_flips: int = declare("count", 0, "store_flips")
    payload_flip_rate: float = declare("rate", 0.0, "payload_flip")
    fock_flip_iterations: tuple[int, ...] = declare(
        "iterations", (), "fock_flip@it"
    )
    density_flip_iterations: tuple[int, ...] = declare(
        "iterations", (), "density_flip@it"
    )
    max_corruptions: int = declare("param", 0, "max")

    def activate(self) -> "SDCFaultState":
        return SDCFaultState(self)


class SDCFaultState(SeededFaultState):
    """An activated :class:`SDCFaultPlan`: seeded rng + injection counters."""

    _counters = (
        "files_corrupted", "blocks_corrupted", "payloads_corrupted",
        "matrices_corrupted",
    )
    _iterations = "{}_flip_iterations"

    def __init__(self, plan: SDCFaultPlan):
        super().__init__(plan)
        #: checkpoint files bit-flipped post-write
        self.files_corrupted = 0
        #: on-disk store segments bit-flipped
        self.blocks_corrupted = 0
        #: GA accumulate payloads corrupted in flight
        self.payloads_corrupted = 0

    def corrupt_file(self, path: str | Path) -> bool:
        """Maybe flip one bit of a just-written checkpoint; True if it
        fired.

        The bit lands in a member's data, which the entry CRC and
        ``payload_sha256`` cover (as :meth:`corrupt_store_dir` draws
        from ``segment_extents``).  The draw consumes the rng whether or
        not corruption fires, so an sdc run is reproducible from the
        plan's seed alone.
        """
        if self.plan.checkpoint_flip_rate <= 0.0:
            return False
        fire = self.rng.random() < self.plan.checkpoint_flip_rate
        if not fire or self._budget_left() == 0:
            return False
        flip_bit_in_file(path, self.rng, spans=zip_member_spans(path))
        self.files_corrupted += 1
        return True

    def corrupt_store_dir(self, path: str | Path) -> int:
        """Bit-flip ``store_flips`` distinct segments of an on-disk ERI store.

        Each victim segment takes one flip in a byte of its data, its
        column indices or its row pointers (the array drawn first, among
        those the segment has bytes in), located through
        :func:`repro.integrals.store.segment_extents` -- no
        :class:`~repro.integrals.store.ERIStore` attach needed --
        modelling a disk that rots under a finalized store.  Returns how
        many segments were corrupted.
        """
        from repro.integrals.store import segment_extents

        if self.plan.store_flips <= 0:
            return 0
        data_file, segments = segment_extents(path)
        nflips = min(self.plan.store_flips, len(segments))
        victims = self.rng.choice(len(segments), size=nflips, replace=False)
        with open(data_file, "r+b") as fh:
            for s in victims:
                if self._budget_left() == 0:
                    break
                ranges = [r for r in segments[s] if r[1] > r[0]]
                lo, hi = ranges[int(self.rng.integers(len(ranges)))]
                byte = int(self.rng.integers(lo, hi))
                fh.seek(byte)
                old = fh.read(1)[0]
                fh.seek(byte)
                fh.write(bytes([old ^ (1 << int(self.rng.integers(8)))]))
                self.blocks_corrupted += 1
        return self.blocks_corrupted

    def corrupt_payload(self, block: np.ndarray) -> np.ndarray:
        """Maybe corrupt one GA accumulate payload in flight."""
        if self.plan.payload_flip_rate <= 0.0:
            return block
        fire = self.rng.random() < self.plan.payload_flip_rate
        if not fire or block.size == 0 or self._budget_left() == 0:
            return block
        out = np.array(block, dtype=np.float64)
        flat = out.reshape(-1)
        i = int(self.rng.integers(flat.size))
        flat[i] = _flip_exponent_bit(float(flat[i]), self.rng)
        self.payloads_corrupted += 1
        return out

    def _hit(self, out: np.ndarray) -> tuple[int, float]:
        """An exponent flip of one significant element.  The victim is
        drawn among entries with non-negligible magnitude (an exponent
        flip of a hard zero yields a denormal -- real, but numerically
        invisible and below any detector's floor), off-diagonal
        positions preferred so symmetric targets stay detectable by the
        symmetry residual."""
        scale = float(np.max(np.abs(out)))
        significant = np.abs(out) > 1e-6 * max(scale, 1e-300)
        if out.ndim == 2 and out.shape[0] == out.shape[1]:
            offdiag = ~np.eye(out.shape[0], dtype=bool)
            if (significant & offdiag).any():
                significant &= offdiag
        idx = np.flatnonzero(significant.reshape(-1))
        if idx.size == 0:
            idx = np.arange(out.size)
        i = int(idx[self.rng.integers(idx.size)])
        return i, _flip_exponent_bit(float(out.reshape(-1)[i]), self.rng)


def random_sdc_plan(seed: int) -> SDCFaultPlan:
    """Seeded random :class:`SDCFaultPlan` for ``repro chaos --family sdc``.

    Corrupts a handful of store segments, roughly a third of the written
    checkpoints, and one early Fock and density matrix each; the same
    seed always yields the same plan.
    """
    rng = np.random.default_rng(seed)
    return SDCFaultPlan(
        seed=seed,
        checkpoint_flip_rate=0.34,
        store_flips=int(rng.integers(2, 5)),
        payload_flip_rate=0.25,
        fock_flip_iterations=(int(rng.integers(2, 4)),),
        density_flip_iterations=(int(rng.integers(4, 6)),),
        max_corruptions=64,
    )


# ---------------------------------------------------------------------------
# detection: ABFT-style detectors + run-wide integrity accounting
# ---------------------------------------------------------------------------


# Tolerances of the hot-path algebraic detectors.  Both are exact
# identities of RHF up to rounding, so the values sit orders of magnitude
# above honest float64 noise and orders below any exponent-bit flip.
#: bound on the relative symmetry residual
#: ``max|A - A^T| / max(1, max|A|)`` of F and D
SYM_TOL = 1e-8
#: bound on ``|Tr(D S) - n_occ|``
TRACE_TOL = 1e-6


class IntegrityMonitor:
    """Run-wide integrity accounting behind the ``integrity=`` knob.

    One instance per run.  The hot-path detectors
    (:meth:`check_fock` / :meth:`check_density`) return False on
    detection *and* count it; the checksum layers (store CRCs,
    checkpoint digests, GA payload checksums) report their detections
    via :meth:`record_detection`, and every recovery rung taken is
    tallied via :meth:`record_recovery` -- so one ``summary()`` carries
    the complete detect/recover story for metrics, reports, and the
    chaos gate.
    """

    def __init__(self, overlap: np.ndarray | None = None):
        self.overlap = overlap
        #: detector runs, keyed by detector name
        self.checks: dict[str, int] = {}
        #: corruptions detected, keyed by kind
        self.detections: dict[str, int] = {}
        #: recoveries taken, keyed by action
        self.recoveries: dict[str, int] = {}

    # -- accounting ----------------------------------------------------------

    def record_check(self, detector: str, n: int = 1) -> None:
        self.checks[detector] = self.checks.get(detector, 0) + n

    def record_detection(self, kind: str, n: int = 1) -> None:
        if n > 0:
            self.detections[kind] = self.detections.get(kind, 0) + n

    def record_recovery(self, action: str, n: int = 1) -> None:
        if n > 0:
            self.recoveries[action] = self.recoveries.get(action, 0) + n

    @property
    def checks_total(self) -> int:
        return sum(self.checks.values())

    @property
    def detections_total(self) -> int:
        return sum(self.detections.values())

    @property
    def recoveries_total(self) -> int:
        return sum(self.recoveries.values())

    # -- hot-path ABFT detectors --------------------------------------------

    def _symmetry_ok(self, a: np.ndarray) -> bool:
        """``a`` is finite and symmetric: NaN and +-Inf both propagate into
        ``max|a|``, the residual's scale, so a non-finite scale fails before
        the residual pass (which Inf - Inf would only make NaN)."""
        scale = float(np.abs(a).max())
        if not math.isfinite(scale):
            return False
        # a - a^T is antisymmetric: its largest entry is its largest |entry|
        return float((a - a.T).max()) <= SYM_TOL * max(1.0, scale)

    def check_fock(self, f: np.ndarray) -> bool:
        """F must be finite and symmetric (F = F^T is exact in RHF)."""
        self.record_check("fock_symmetry")
        ok = self._symmetry_ok(f)
        if not ok:
            self.record_detection("fock_matrix")
        return ok

    def check_density(self, d: np.ndarray, nocc: int) -> bool:
        """D must be finite, symmetric, and carry Tr(D S) = n_occ
        (``nocc``: this spin channel's count)."""
        self.record_check("density_symmetry")
        ok = self._symmetry_ok(d)
        if ok and self.overlap is not None:
            self.record_check("density_trace")
            tr = float(np.vdot(d, self.overlap.T))
            ok = abs(tr - nocc) <= TRACE_TOL * max(1.0, nocc)
        if not ok:
            self.record_detection("density_matrix")
        return ok

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Integrity counters for metrics, reports, and the chaos CLI."""
        return {
            "checks": dict(sorted(self.checks.items())),
            "detections": dict(sorted(self.detections.items())),
            "recoveries": dict(sorted(self.recoveries.items())),
            "checks_total": self.checks_total,
            "detections_total": self.detections_total,
            "recoveries_total": self.recoveries_total,
        }
