"""Memory-mapped stored-integral mode (conventional SCF).

Mitin (arxiv 1905.07779) shows that for mid-size systems a *conventional*
SCF -- compute the screened non-zero integrals once, store them, and
re-read them every iteration -- beats direct SCF, whose ERI work is paid
again on every Fock build.  This module is that storage layer:

* :class:`ERIStore` persists canonical screened quartet blocks to a flat
  ``float64`` file served back through ``np.memmap`` -- the OS page
  cache keeps hot blocks in RAM with zero deserialization cost, and the
  file stays usable across processes and sessions.
* An ``index.npz`` maps packed canonical quartet keys to element offsets
  (binary search at lookup; vectorized for whole class batches).
* A ``manifest.json`` records provenance -- a SHA-256 fingerprint of the
  basis (angular momenta, purity, centers, exponents, normalized
  coefficients), the screening threshold ``tau``, and shapes -- so a
  store can never silently serve integrals for the wrong basis: a
  fingerprint mismatch invalidates the store (with a warning) and
  refilling starts from scratch.

Lifecycle: ``open_or_fill()`` -> ``filling`` (first Fock build records
computed blocks) -> ``finalize(tau)`` -> ``ready``.  The store is one of
the two sources of the class-batched chunk resolver
(:mod:`repro.integrals.class_batch`; the other is compute): the first
build a ready store serves reads every block once into the engine's
sparse supermatrix and later builds contract that, so SCF iterations
>= 2 recompute zero ERIs (tracked by ``quartets_served_from_store``)
and re-read none.

Cross-process safety (service workers share store directories):

* every disk transition (attach / finalize / invalidate) runs under an
  advisory ``flock`` on ``<store>/.lock``;
* finalize publishes atomically -- data files are staged as ``*.tmp``
  and ``os.replace``'d into place, with ``manifest.json`` written
  **last**, so a crash mid-finalize leaves a store with no (or the old)
  manifest, never a manifest describing partial data;
* a process that acquires the finalize lock and finds a valid store
  already on disk re-attaches to it instead of clobbering it.

Data integrity (store format v2): ``index.npz`` carries a per-block
CRC-32 array (``crcs``) written at finalize, and the manifest carries a
whole-file SHA-256 of ``blocks.bin`` (``blocks_sha256``).  With
``verify_reads`` enabled (the SCF ``integrity=`` knob arms it), every
block is CRC-checked as it is read -- once per attach, at supermatrix
assembly -- and a mismatching block is *not* served:
:meth:`verify_stacked` flags bad rows for the class-batched resolver to
recompute.  The whole-file digest is only checked by the
offline ``repro verify`` audit, keeping attach cheap.  A manifest with
a different store format version is invalidated with
:class:`StoreInvalidatedWarning` and refilled cleanly.  Threat model
and detector costs: ``docs/ROBUSTNESS.md`` ("Silent data corruption").

This module is the one that knows the on-disk layout: the offline audit
(:func:`is_store_dir`, :func:`audit_store_dir`) and the SDC fault
injector read it through :func:`read_index` and :func:`blocks_file`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import warnings
import zlib
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.runtime.sdc import crc_rows

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

# v2: index.npz gains per-block CRC-32s, manifest gains blocks_sha256
STORE_VERSION = 2
_MANIFEST = "manifest.json"
_INDEX = "index.npz"
_BLOCKS = "blocks.bin"
_LOCK = ".lock"
#: the first format version with per-block CRCs and a whole-file digest
_FRAMED_VERSION = 2


def basis_fingerprint(basis: BasisSet) -> str:
    """SHA-256 over everything that determines the ERI values.

    Covers each shell's angular momentum, purity flag, center,
    exponents, and *normalized* contraction coefficients (so a
    renormalization change invalidates stores too), plus the shell
    count/ordering implicitly through concatenation order.
    """
    h = hashlib.sha256()
    h.update(f"v{STORE_VERSION}:{basis.nbf}:{len(basis.shells)}".encode())
    for sh in basis.shells:
        h.update(f"|{sh.l}:{int(sh.pure)}".encode())
        h.update(np.ascontiguousarray(sh.center, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(sh.exps, dtype=np.float64).tobytes())
        h.update(
            np.ascontiguousarray(sh.norm_coefs, dtype=np.float64).tobytes()
        )
    return h.hexdigest()


class StoreInvalidatedWarning(UserWarning):
    """An on-disk integral store did not match the requested basis."""


class ERIStore:
    """On-disk store of canonical screened ERI quartet blocks.

    States: ``filling`` (accepting :meth:`record_batch`) and ``ready``
    (memory-mapped, read-only).  ``generation`` increments
    whenever the readable content changes, so what was assembled from
    one generation is never contracted against another.
    """

    def __init__(self, path: str | Path, basis: BasisSet):
        self.path = Path(path)
        self.basis = basis
        self.fingerprint = basis_fingerprint(basis)
        self.manifest: dict | None = None
        self.generation = 0
        self.filling = False
        self.ready = False
        self._keys: np.ndarray | None = None  # sorted packed keys
        self._offsets: np.ndarray | None = None  # element offsets, key order
        self._crcs: np.ndarray | None = None  # per-block CRC-32, key order
        self._flat: np.memmap | None = None
        #: CRC-check every block as it is read (armed by ``integrity=``)
        self.verify_reads = False
        self.crc_checks = 0
        self.crc_mismatches = 0
        #: recorded chunks, columnar: (packed keys, one flat block per row)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._lock = threading.Lock()
        self._flock_depth = 0
        self._nshells = len(basis.shells)
        self._reject_reason = "stale or unreadable manifest"

    @contextlib.contextmanager
    def _disk_lock(self):
        """Advisory cross-process lock on the store directory.

        Reentrant within this instance (``flock`` on a second fd from
        the same process would self-deadlock).  Closing the fd releases
        the lock, so a crashed holder never wedges other processes.
        """
        if self._flock_depth > 0:
            self._flock_depth += 1
            try:
                yield
            finally:
                self._flock_depth -= 1
            return
        self.path.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path / _LOCK, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            self._flock_depth = 1
            yield
        finally:
            self._flock_depth = 0
            os.close(fd)

    # -- key packing --------------------------------------------------------

    def pack_rows(self, quartets: np.ndarray) -> np.ndarray:
        s = self._nshells
        q = np.asarray(quartets, dtype=np.int64)
        return ((q[:, 0] * s + q[:, 1]) * s + q[:, 2]) * s + q[:, 3]

    # -- lifecycle ----------------------------------------------------------

    def open_or_fill(self) -> "ERIStore":
        """Attach to an existing valid store, or start filling a new one.

        An existing store whose manifest fingerprint does not match the
        current basis is *invalidated*: its files are removed, a
        :class:`StoreInvalidatedWarning` is emitted, and the store drops
        back to the filling state.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        with self._disk_lock():
            if (self.path / _MANIFEST).exists():
                manifest = self._load_valid_manifest()
                if manifest is not None:
                    self._attach(manifest)
                    return self
                self.invalidate(self._reject_reason)
            self.filling = True
            self.ready = False
        return self

    def _load_valid_manifest(self) -> dict | None:
        """The on-disk manifest iff it matches this basis and is complete.

        On rejection, ``self._reject_reason`` says why -- a store format
        version mismatch is named explicitly so the resulting
        :class:`StoreInvalidatedWarning` is actionable.
        """
        self._reject_reason = "stale or unreadable manifest"
        try:
            manifest = json.loads((self.path / _MANIFEST).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        version = manifest.get("version")
        if version != STORE_VERSION:
            self._reject_reason = (
                f"store format version {version!r} != expected {STORE_VERSION}"
            )
            return None
        if (
            manifest.get("basis_sha256") == self.fingerprint
            and (self.path / _INDEX).exists()
            and (self.path / _BLOCKS).exists()
        ):
            return manifest
        return None

    def _attach(self, manifest: dict) -> None:
        with np.load(self.path / _INDEX) as idx:
            self._keys = idx["keys"]
            self._offsets = idx["offsets"]
            self._crcs = idx["crcs"]
        self._flat = np.memmap(self.path / _BLOCKS, dtype=np.float64, mode="r")
        self.manifest = manifest
        self.ready = True
        self.filling = False
        self.generation += 1

    def invalidate(self, reason: str) -> None:
        """Discard on-disk content and return to the filling state."""
        warnings.warn(
            f"integral store at {self.path} invalidated ({reason}); "
            "integrals will be recomputed and the store refilled",
            StoreInvalidatedWarning,
            stacklevel=2,
        )
        self._flat = None
        self._keys = None
        self._offsets = None
        self._crcs = None
        self.manifest = None
        with self._disk_lock():
            # manifest first: a crash mid-invalidate must never leave a
            # manifest describing files that are already gone
            for name in (_MANIFEST, _INDEX, _BLOCKS):
                try:
                    (self.path / name).unlink(missing_ok=True)
                except OSError:
                    pass
        self.ready = False
        self.filling = True
        self._pending.clear()
        self.generation += 1

    # -- filling ------------------------------------------------------------

    @property
    def pending_blocks(self) -> int:
        return sum(len(keys) for keys, _ in self._pending)

    def record_batch(self, quartets: np.ndarray, blocks: np.ndarray) -> None:
        """Record a stacked chunk of canonical blocks while filling."""
        if not self.filling:
            return
        keys = self.pack_rows(quartets)
        rows = np.array(blocks, dtype=np.float64).reshape(len(keys), -1)
        with self._lock:
            self._pending.append((keys, rows))

    def _pending_columns(self):
        """The recorded chunks as the on-disk columns: sorted unique keys
        (a key recorded twice keeps its first block), block sizes, element
        offsets, the blocks laid end to end in key order, their CRCs."""
        keys = np.concatenate([k for k, _ in self._pending])
        sizes = np.concatenate(
            [np.full(len(k), rows.shape[1]) for k, rows in self._pending]
        )
        order = np.argsort(keys, kind="stable")
        first = np.ones(order.size, dtype=bool)
        first[1:] = keys[order[1:]] != keys[order[:-1]]
        order = order[first]
        keys, sizes = keys[order], sizes[order]
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        # where each recorded row lands, in recording order (-1: dropped)
        pos = np.full(first.size, -1)
        pos[order] = np.arange(order.size)
        flat = np.empty(int(sizes.sum()))
        crcs = np.empty(order.size, dtype=np.uint32)
        lo = 0
        for k, rows in self._pending:
            at = pos[lo:lo + len(k)]
            lo += len(k)
            if (at < 0).any():
                rows, at = rows[at >= 0], at[at >= 0]
            flat[offsets[at][:, None] + np.arange(rows.shape[1])] = rows
            crcs[at] = crc_rows(rows)
        return keys, sizes, offsets, flat, crcs

    def finalize(self, tau: float | None = None) -> None:
        """Write pending blocks to disk and switch to the ready state.

        Publication is atomic and ordered: ``blocks.bin`` and
        ``index.npz`` are staged as ``*.tmp`` and ``os.replace``'d into
        place first; ``manifest.json`` goes last.  A process killed at
        any point mid-finalize therefore leaves either no manifest
        (``open_or_fill`` refills from scratch) or a complete store --
        never a manifest pointing at partial data.
        """
        with self._lock:
            if not self.filling or not self._pending:
                return
            self.path.mkdir(parents=True, exist_ok=True)
            with self._disk_lock():
                # another process may have finalized while this one was
                # still filling: attach to its store, don't clobber it
                existing = self._load_valid_manifest()
                if existing is not None:
                    self._pending.clear()
                    self._attach(existing)
                    return
                keys, sizes, offsets, flat, crcs = self._pending_columns()
                tmp_blocks = self.path / (_BLOCKS + ".tmp")
                flat.tofile(tmp_blocks)
                os.replace(tmp_blocks, self.path / _BLOCKS)
                tmp_index = self.path / (_INDEX + ".tmp")
                with open(tmp_index, "wb") as fh:
                    np.savez(fh, keys=keys, offsets=offsets, sizes=sizes,
                             crcs=crcs)
                os.replace(tmp_index, self.path / _INDEX)
                manifest = {
                    "version": STORE_VERSION,
                    "basis_sha256": self.fingerprint,
                    "blocks_sha256": hashlib.sha256(flat).hexdigest(),
                    "basis_name": self.basis.name,
                    "tau": None if tau is None else float(tau),
                    "nbf": int(self.basis.nbf),
                    "nshells": self._nshells,
                    "nblocks": int(keys.size),
                    "nelements": int(flat.size),
                    "created": datetime.now(timezone.utc).isoformat(),
                }
                tmp_manifest = self.path / (_MANIFEST + ".tmp")
                tmp_manifest.write_text(json.dumps(manifest, indent=2) + "\n")
                os.replace(tmp_manifest, self.path / _MANIFEST)
                self._pending.clear()
                self._attach(manifest)

    # -- reading ------------------------------------------------------------

    @property
    def nblocks(self) -> int:
        return 0 if self._keys is None else int(self._keys.size)

    @property
    def nbytes(self) -> int:
        return 0 if self._flat is None else int(self._flat.size * 8)

    def offsets_for(self, quartets: np.ndarray) -> np.ndarray | None:
        """Element offsets for quartet rows; -1 where a key is missing."""
        if not self.ready:
            return None
        keys = self.pack_rows(quartets)
        pos = np.searchsorted(self._keys, keys)
        pos = np.minimum(pos, self._keys.size - 1)
        found = self._keys[pos] == keys
        out = np.where(found, self._offsets[pos], -1)
        return out

    def read_stacked(
        self, offsets: np.ndarray, block_size: int, dims: tuple
    ) -> np.ndarray:
        """Gather uniform-size blocks at ``offsets`` into one stacked array."""
        rows = self._flat[offsets[:, None] + np.arange(block_size)]
        return rows.reshape((len(offsets),) + tuple(dims))

    def verify_stacked(
        self, offsets: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """CRC-check blocks just gathered at ``offsets`` (as
        :meth:`offsets_for` returned them); True where intact.  The
        class-batched resolver recomputes the rows flagged False.
        """
        # ``_offsets`` is a cumulative sum, hence ascending: each offset
        # maps back to its key position by binary search
        pos = np.searchsorted(self._offsets, np.asarray(offsets, np.int64))
        good = crc_rows(blocks.reshape(len(pos), -1)) == self._crcs[pos]
        self.crc_checks += len(pos)
        self.crc_mismatches += int((~good).sum())
        return good

    def stats(self) -> dict:
        """Snapshot for reports/tests."""
        return {
            "path": str(self.path),
            "ready": self.ready,
            "filling": self.filling,
            "nblocks": self.nblocks,
            "nbytes": self.nbytes,
            "pending_blocks": self.pending_blocks,
            "tau": None if self.manifest is None else self.manifest.get("tau"),
            "verify_reads": self.verify_reads,
            "crc_checks": int(self.crc_checks),
            "crc_mismatches": int(self.crc_mismatches),
        }


# ---------------------------------------------------------------------------
# the on-disk layout, for readers that do not attach
# ---------------------------------------------------------------------------


def read_index(path: str | Path) -> dict[str, np.ndarray]:
    """A store's ``index.npz``: ``keys``, ``offsets``, ``sizes``, ``crcs``."""
    with np.load(Path(path) / _INDEX) as idx:
        return {name: idx[name] for name in idx.files}


def blocks_file(path: str | Path) -> Path:
    """The flat ``float64`` data file of the store at ``path``."""
    return Path(path) / _BLOCKS


def is_store_dir(path: str | Path) -> bool:
    """A store directory: either data file exists, or a manifest that
    fingerprints a basis (a run ledger's manifest does not)."""
    path = Path(path)
    if (path / _INDEX).exists() or (path / _BLOCKS).exists():
        return True
    try:
        return "basis_sha256" in json.loads((path / _MANIFEST).read_text())
    except (OSError, ValueError, TypeError):
        return False


def audit_store_dir(path: str | Path) -> tuple[list[str], int]:
    """Verify one on-disk store bottom-up, without attaching.

    The manifest parses and is integrity-framed (pre-v2 stores carry no
    checksums: unverifiable), the index loads, ``blocks.bin`` holds
    exactly ``nelements`` float64s and matches ``blocks_sha256``, and
    every block matches its CRC-32.  Returns the problems found and the
    number of blocks checked.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / _MANIFEST).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable manifest: {exc}"], 0
    version = manifest.get("version")
    if not isinstance(version, int) or version < _FRAMED_VERSION:
        return [f"format version {version!r} predates integrity framing "
                "(no per-block checksums; refill to verify)"], 0
    try:
        index = read_index(path)
        offsets, sizes, crcs = index["offsets"], index["sizes"], index["crcs"]
    except Exception as exc:
        return [f"unreadable index.npz: {exc}"], 0
    try:
        flat = np.fromfile(path / _BLOCKS, dtype=np.float64)
    except OSError as exc:
        return [f"unreadable blocks.bin: {exc}"], 0
    nelements = int(manifest.get("nelements", -1))
    if flat.size != nelements:
        return [f"blocks.bin holds {flat.size} elements, manifest says "
                f"{nelements}"], 0
    problems = []
    if hashlib.sha256(flat.tobytes()).hexdigest() != manifest.get("blocks_sha256"):
        problems.append("blocks.bin sha256 != manifest digest")
    for i, (lo, n) in enumerate(zip(offsets.tolist(), sizes.tolist())):
        if zlib.crc32(flat[lo:lo + n].tobytes()) != int(crcs[i]):
            problems.append(f"block {i} failed its CRC-32")
    return problems, len(offsets)
