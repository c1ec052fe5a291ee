"""Memory-mapped stored-integral mode (conventional SCF).

Mitin (arxiv 1905.07779) shows that for mid-size systems a *conventional*
SCF -- compute the screened non-zero integrals once, store them, and
build every F straight from them -- beats direct SCF, whose ERI work is
paid again on every Fock build.  This module is that storage layer:

* :class:`ERIStore` is a file format for two matrices: the M_J and M_K
  (:class:`~repro.integrals.class_batch.Supermatrix`) of the plan whose
  build filled it.  That build makes them (the J/K build is the only
  code that turns computed rows into matrices) and stages them with
  :meth:`~ERIStore.record_batch`; ``finalize`` writes their ``data`` /
  ``indices`` / ``indptr`` arrays end to end in one file,
  ``supermatrix.bin``.  The first build it serves memory-maps them
  (copy-on-write; the page cache shares them across processes) into the
  store's one slot: nothing is read block by block or assembled, and
  later builds re-read nothing, plan nothing and screen nothing.
* ``manifest.json`` records provenance -- a SHA-256 fingerprint of the
  basis (angular momenta, purity, centers, exponents, normalized
  coefficients), the screening ``tau`` (which fixes the quartets held)
  and the layout.  A fingerprint or format-version mismatch invalidates
  the store (:class:`StoreInvalidatedWarning`) and it is refilled; so
  does a build at another ``tau``: one directory holds one (basis, tau).

Lifecycle: ``open_or_fill()`` -> ``filling`` (the first Fock build
stages its matrices) -> ``finalize(tau)`` -> ``ready``.  Every disk
transition runs under an advisory ``flock`` on ``<store>/.lock``; the
data file is staged as ``*.tmp`` and ``os.replace``'d into place with
``manifest.json`` written **last**, so a crash mid-finalize never leaves
a manifest describing partial data; a process that finds a valid store
on disk when it comes to finalize attaches to it instead of clobbering it.

Data integrity (format v3): each matrix is cut into *segments*, one per
shell -- the rows ``(a, x)`` with ``a`` in it, which hold exactly the
entries of the quartets whose first shell it is.  The manifest carries
one CRC-32 per segment (its data, its indices, its own ``indptr``
entries) and a whole-file SHA-256.  With ``verify_reads`` (armed by the
SCF ``integrity=`` knob) each segment is CRC-checked as it is mapped;
unverified, each is still checked to be a well-formed CSR slice, so a
flipped bit can make a value wrong but never send a read outside the
matrix.  A failed segment is rebuilt from its shell's rows of the plan
at the manifest's ``tau``, the only time a served build plans; one that
does not fit its slot invalidates the store, refilled by the build that
found it.  The digest is checked by the offline ``repro verify``
audit only.  A v2 store (a flat block file and a per-block index) is
invalidated and refilled.  Threat model: ``docs/ROBUSTNESS.md`` ("Silent data
corruption").  This module alone knows the layout: the audit
(:func:`is_store_dir`, :func:`audit_store_dir`) and the SDC fault
injector (:func:`segment_extents`) read it here.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
import zlib
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

# v3: the file is the supermatrix, one CRC-32 per segment
STORE_VERSION = 3
_MANIFEST = "manifest.json"
_DATA = "supermatrix.bin"
_LOCK = ".lock"
#: the v2 format's files (flat blocks, per-block index), removed on invalidation
_V2_FILES = ("blocks.bin", "index.npz")
#: the matrices in file order, and each one's arrays
_MATRICES = ("mj", "mk")
_ARRAYS = ("data", "indices", "indptr")


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


def _layout(manifest: dict) -> tuple[dict, list]:
    """Where each ``(matrix, array)`` sits in the data file, as ``(byte
    offset, dtype, count)`` (every array 8-byte aligned), and per segment
    its matrix and the element ranges of its data, its indices and its
    own ``indptr`` entries -- the segments of M_J first."""
    index = np.dtype(manifest["index_dtype"])
    rows = manifest["rows"]
    arrays, segments, at = {}, [], 0
    for m in _MATRICES:
        nnz = manifest["nnz"][m]
        for name, dtype, count in (
            ("data", np.dtype(np.float64), nnz[-1]),
            ("indices", index, nnz[-1]),
            ("indptr", index, rows[-1] + 1),
        ):
            arrays[m, name] = (at, dtype, count)
            at += -(-count * dtype.itemsize // 8) * 8
        for r0, r1, z0, z1 in zip(rows[:-1], rows[1:], nnz[:-1], nnz[1:]):
            # indptr[r0] ends the previous segment
            segments.append((m, ((z0, z1), (z0, z1), (r0 + (r0 > 0), r1 + 1))))
    return arrays, segments


def _views(buf: np.ndarray, arrays: dict) -> dict:
    """The typed arrays of a data file's bytes ``buf``."""
    return {
        key: buf[at:at + dtype.itemsize * count].view(dtype)
        for key, (at, dtype, count) in arrays.items()
    }


def _segment_crcs(views: dict, segments: list) -> list[int]:
    """One CRC-32 per segment, over its ranges of ``views``."""
    out = []
    for m, ranges in segments:
        crc = 0
        for name, (lo, hi) in zip(_ARRAYS, ranges):
            crc = zlib.crc32(views[m, name][lo:hi], crc)
        out.append(crc)
    return out


class StoreInvalidatedWarning(UserWarning):
    """An on-disk integral store did not match the requested basis."""


class ERIStore:
    """On-disk store of a plan's integrals as its two CSR matrices.

    States: ``filling`` (accepting :meth:`record_batch`) and ``ready``
    (memory-mapped, read-only).  ``supermatrix`` is the one slot for the
    mapping a build serves from; the readable content changes only in
    ``_attach`` and :meth:`invalidate`, and both empty the slot, so a
    mapping is never contracted against other content.
    """

    def __init__(self, path: str | Path, basis: BasisSet):
        self.path = Path(path)
        self.basis = basis
        self.fingerprint = basis_fingerprint(basis)
        self.manifest: dict | None = None
        #: the ready content mapped as a ``class_batch.Supermatrix`` by
        #: the first build it serves (``None``: not mapped yet)
        self.supermatrix = None
        self.filling = False
        self.ready = False
        #: CRC-check every segment as it is mapped (armed by ``integrity=``)
        self.verify_reads = False
        self.crc_checks = 0
        self.crc_mismatches = 0
        #: the staged fill: M_J, M_K and how many quartets they hold
        self._staged: tuple | None = None
        self._flock_depth = 0
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

    # -- lifecycle ----------------------------------------------------------

    def open_or_fill(self) -> "ERIStore":
        """Attach to an existing valid store, or start filling a new one.

        An existing store whose manifest fingerprint or format version
        does not match is *invalidated*: its files are removed, a
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
        data = self.path / _DATA
        if (
            manifest.get("basis_sha256") == self.fingerprint
            and data.exists() and data.stat().st_size == manifest.get("nbytes")
        ):
            return manifest
        return None

    def _attach(self, manifest: dict) -> None:
        self.manifest, self.supermatrix = manifest, None
        self.ready = True
        self.filling = False

    def invalidate(self, reason: str) -> None:
        """Discard on-disk content and return to the filling state."""
        warnings.warn(
            f"integral store at {self.path} invalidated ({reason}); "
            "integrals will be recomputed and the store refilled",
            StoreInvalidatedWarning,
            stacklevel=2,
        )
        self.manifest = self.supermatrix = None
        with self._disk_lock():
            # manifest first: a crash mid-invalidate must never leave a
            # manifest describing files that are already gone
            for name in (_MANIFEST, _DATA, *_V2_FILES):
                try:
                    (self.path / name).unlink(missing_ok=True)
                except OSError:
                    pass
        self.ready = False
        self.filling = True
        self._staged = None

    # -- filling ------------------------------------------------------------

    def record_batch(self, mj, mk, nblocks: int) -> None:
        """Stage the filling build's CSR ``M_J`` and ``M_K``, of ``nblocks``
        quartets, for :meth:`finalize`."""
        if self.filling:
            self._staged = (mj, mk, int(nblocks))

    def finalize(self, tau: float) -> None:
        """Write the staged matrices to disk as the plan filled at ``tau``
        and switch to the ready state: the data file first (staged, then
        ``os.replace``'d), the manifest last, so a process killed
        mid-finalize leaves no manifest or a complete store, never a
        manifest pointing at partial data."""
        if not self.filling or self._staged is None:
            return
        with self._disk_lock():
            # another process may have finalized while this one was still
            # filling: attach to its store at this tau, don't clobber it
            existing = self._load_valid_manifest()
            if existing is None or existing["tau"] != tau:
                existing = self._write(tau)
            self._staged = None
            self._attach(existing)

    def _write(self, tau: float) -> dict:
        """Publish the staged M_J and M_K; their manifest."""
        mj, mk, nblocks = self._staged
        mats = dict(zip(_MATRICES, (mj, mk)))
        rows = (self.basis.offsets * self.basis.nbf).tolist()  # a segment per shell
        manifest = {
            "version": STORE_VERSION,
            "basis_sha256": self.fingerprint,
            "basis_name": self.basis.name,
            "tau": float(tau),
            "nbf": int(self.basis.nbf),
            "nshells": len(self.basis.shells),
            "nblocks": nblocks,
            "index_dtype": np.result_type(*(getattr(m, a) for m in mats.values()
                                            for a in ("indices", "indptr"))).name,
            "rows": rows,
            "nnz": {k: m.indptr[rows].tolist() for k, m in mats.items()},
        }
        arrays, segments = _layout(manifest)
        views = {(k, a): getattr(mats[k], a).astype(dt, copy=False)
                 for (k, a), (_, dt, _) in arrays.items()}
        digest, tmp = hashlib.sha256(), self.path / (_DATA + ".tmp")
        with open(tmp, "wb") as fh:
            for view in views.values():  # each padded to 8 bytes
                for chunk in (view, bytes(-view.nbytes % 8)):
                    fh.write(chunk)
                    digest.update(chunk)
        os.replace(tmp, self.path / _DATA)
        manifest.update(
            crcs=_segment_crcs(views, segments), data_sha256=digest.hexdigest(),
            nbytes=sum(-(-v.nbytes // 8) * 8 for v in views.values()),
            created=datetime.now(timezone.utc).isoformat(),
        )
        tmp = self.path / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp, self.path / _MANIFEST)
        return manifest

    # -- reading ------------------------------------------------------------

    @property
    def nblocks(self) -> int:
        """Quartet blocks the store holds."""
        return 0 if self.manifest is None else int(self.manifest["nblocks"])

    @property
    def nsegments(self) -> int:
        return 0 if self.manifest is None else len(self.manifest["crcs"])

    @property
    def nbytes(self) -> int:
        return 0 if self.manifest is None else int(self.manifest["nbytes"])

    def offsets_for(self) -> tuple[list, list]:
        """The segment map: the row cuts both matrices share (segment
        ``s`` is the rows of shell ``s``) and per matrix its non-zero cuts."""
        m = self.manifest
        return m["rows"], [m["nnz"][k] for k in _MATRICES]

    def read_stacked(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(data, indices, indptr)`` of M_J and M_K, memory-mapped
        copy-on-write: a patched segment stays private to the caller."""
        buf = np.memmap(self.path / _DATA, dtype=np.uint8, mode="c")
        views = _views(buf, _layout(self.manifest)[0])
        return [tuple(views[m, a] for a in _ARRAYS) for m in _MATRICES]

    def verify_stacked(self, arrays) -> list[np.ndarray]:
        """Per matrix, True where a segment of :meth:`read_stacked`'s
        ``arrays`` is intact: it matches its CRC-32 when reads are
        verified, else it is a well-formed CSR slice (its ``indptr``
        climbs from its first non-zero to its last, its columns are in
        range).  The mapping rebuilds the segments flagged False."""
        views = {(m, a): arr for m, triple in zip(_MATRICES, arrays)
                 for a, arr in zip(_ARRAYS, triple)}
        _, segments = _layout(self.manifest)
        if self.verify_reads:
            ok = np.equal(_segment_crcs(views, segments), self.manifest["crcs"])
            self.crc_checks += ok.size
        else:
            ncols = self.manifest["rows"][-1]

            def well_formed(m, nnz, own):
                (z0, z1), ends = nnz, views[m, "indptr"][own[0]:own[1]]
                cols = views[m, "indices"][z0:z1]
                return bool(
                    ends[-1] == z1 and (np.diff(ends, prepend=z0) >= 0).all()
                    and (z1 == z0 or 0 <= cols.min() and cols.max() < ncols)
                )

            ok = np.array([well_formed(m, r[0], r[2]) for m, r in segments])
        self.crc_mismatches += int((~ok).sum())
        return np.split(ok, len(_MATRICES))

    def stats(self) -> dict:
        """Snapshot for reports/tests."""
        return {
            "path": str(self.path),
            "ready": self.ready,
            "filling": self.filling,
            "nblocks": self.nblocks,
            "nsegments": self.nsegments,
            "nbytes": self.nbytes,
            "tau": None if self.manifest is None else self.manifest.get("tau"),
            "verify_reads": self.verify_reads,
            "crc_checks": int(self.crc_checks),
            "crc_mismatches": int(self.crc_mismatches),
        }


# ---------------------------------------------------------------------------
# the on-disk layout, for readers that do not attach
# ---------------------------------------------------------------------------


def segment_extents(path: str | Path) -> tuple[Path, list]:
    """The data file of the store at ``path`` and, per segment, the byte
    ranges of its data, indices and ``indptr`` entries there."""
    manifest = json.loads((Path(path) / _MANIFEST).read_text())
    arrays, segments = _layout(manifest)
    return Path(path) / _DATA, [
        [(at + dtype.itemsize * lo, at + dtype.itemsize * hi)
         for (at, dtype, _), (lo, hi) in zip(
             (arrays[m, a] for a in _ARRAYS), ranges)]
        for m, ranges in segments
    ]


def is_store_dir(path: str | Path) -> bool:
    """A store directory: a data file of either format exists, or a
    manifest that fingerprints a basis (a run ledger's manifest does not)."""
    path = Path(path)
    if any((path / name).exists() for name in (_DATA, *_V2_FILES)):
        return True
    try:
        return "basis_sha256" in json.loads((path / _MANIFEST).read_text())
    except (OSError, ValueError, TypeError):
        return False


def audit_store_dir(path: str | Path) -> tuple[list[str], int]:
    """Verify one on-disk store bottom-up, without attaching.

    The manifest parses and is of this format (older stores predate
    segments: refill them), ``supermatrix.bin`` holds exactly ``nbytes``
    and matches ``data_sha256``, and every segment matches its CRC-32.
    Returns the problems found and the number of segments checked.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / _MANIFEST).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable manifest: {exc}"], 0
    version = manifest.get("version")
    if version != STORE_VERSION:
        return [f"format version {version!r} predates segments; refill"], 0
    try:
        buf = np.fromfile(path / _DATA, dtype=np.uint8)
        arrays, segments = _layout(manifest)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable {_DATA}: {exc}"], 0
    if buf.size != manifest.get("nbytes"):
        return [f"{_DATA} holds {buf.size} bytes, manifest says "
                f"{manifest.get('nbytes')}"], 0
    problems = []
    if hashlib.sha256(buf).hexdigest() != manifest.get("data_sha256"):
        problems.append(f"{_DATA} sha256 != manifest digest")
    for i, (got, want) in enumerate(
        zip(_segment_crcs(_views(buf, arrays), segments), manifest["crcs"])
    ):
        if got != want:
            problems.append(f"segment {i} failed its CRC-32")
    return problems, len(segments)
