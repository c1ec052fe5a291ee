"""SCF checkpoint/restart: persist the iteration state, resume bitwise.

An SCF run's full restartable state is small -- the current density, the
last total energy, the energy history, and the DIIS window -- so every
iteration can afford one ``.npz`` snapshot.  A run that dies (or is
killed by the chaos harness) resumes from the latest snapshot and
reproduces the uninterrupted trajectory *bitwise*: everything float64,
no re-derivation.

Format (``scf_ckpt_NNNN.npz``, one file per iteration; every array
float64 unless noted, ``n`` basis functions, ``m`` DIIS vectors held):

* ``iteration`` -- int64 scalar, the 1-based iteration the snapshot was
  taken after;
* ``density`` -- post-iteration density matrix, ``(n, n)``;
* ``energy`` -- scalar total energy of that iteration (becomes
  ``e_old``);
* ``energy_history`` -- total energies of iterations ``1..iteration``;
* ``diis_focks`` / ``diis_errors`` -- the DIIS window, oldest first,
  stacked on axis 0: ``(m, n, n)``, ``(0, n, n)`` when DIIS is off or
  empty;
* ``guard_json`` -- the convergence-guard remediation state
  (:meth:`repro.scf.guard.SCFGuard.state_dict` as JSON), so a restarted
  run resumes with the same damping / level shift / sticky fallbacks.
  Absent in pre-guard snapshots; loading those yields ``guard=None``.
* ``base_fock`` / ``base_density`` -- the Fock matrix and density of the
  iteration's build, which a direct SCF's next build increments
  (``F = F_base + G(D - D_base)``), laid out like ``density``.  Written
  only when the run keeps a base (a direct build, not after a rollback);
  a snapshot without them restarts with a full build.

* ``payload_sha256`` -- SHA-256 digest over every other entry's bytes,
  written at save time and verified on load.  A snapshot without one
  fails verification: nothing vouches for its bytes.

That is the one-channel (RHF) layout, unchanged since the guard and
integrity keys were added.  A run with several spin channels (UHF:
alpha, beta) writes the same keys *spin-stacked*: ``density`` gains a
leading spin axis, ``(k, n, n)``, and the DIIS entries hold the one
window's stacks of the occupied channels, ``(k_occ, m, n, n)`` in spin
order (an empty channel -- the beta space of an H atom -- is left out);
digest and validation rules are the same.

Writes are atomic (tmp file + ``os.replace``), so a rank dying mid-write
never corrupts the latest complete snapshot.  Reads are defensive
against *silent* damage as well as loud damage: a snapshot that is
unreadable, lacks or fails its payload digest, carries NaN/Inf, or has
mismatched array shapes (a bit-flipped file can still parse!) is
skipped with a :class:`CheckpointCorruptionWarning` and the restart
falls back to the most recent *intact* iteration
(:func:`load_latest_intact`).  ``np.savez`` stores entries uncompressed
inside a ZIP container whose per-entry CRC-32 is checked by
``zipfile`` on read, so most bit flips already raise there; the digest
catches flips the container tolerates (headers, padding), and the
NaN/Inf + shape validation catches semantic damage.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_CKPT_RE = re.compile(r"^scf_ckpt_(\d{4,})\.npz$")
_DIGEST_KEY = "payload_sha256"


class CheckpointCorruptionWarning(UserWarning):
    """A snapshot on disk could not be read and was skipped."""


class CheckpointIntegrityError(ValueError):
    """A snapshot parsed but failed integrity validation.

    Raised when the payload digest is missing or does not match the
    stored ``payload_sha256``, when an array carries NaN/Inf, or when shapes
    are inconsistent.  :func:`load_latest_intact` treats it like any
    other corruption: warn and fall back to an older snapshot.
    """


def payload_digest(payload: dict) -> str:
    """SHA-256 over every payload entry's bytes, in sorted key order."""
    h = hashlib.sha256()
    for key in sorted(payload):
        if key == _DIGEST_KEY:
            continue
        val = payload[key]
        h.update(key.encode())
        if np.asarray(val).dtype.kind == "U":
            h.update(str(val).encode())
        else:
            h.update(np.ascontiguousarray(val).tobytes())
    return h.hexdigest()


@dataclass
class Checkpoint:
    """One restored SCF snapshot."""

    iteration: int
    density: np.ndarray
    energy: float
    #: the ``(base_fock, base_density)`` arrays (None: not stored)
    base: tuple[np.ndarray, np.ndarray] | None
    energy_history: list[float] = field(default_factory=list)
    diis_focks: list[np.ndarray] = field(default_factory=list)
    diis_errors: list[np.ndarray] = field(default_factory=list)
    #: convergence-guard remediation state (None in pre-guard snapshots)
    guard: dict | None = None

    @property
    def spin_base(self) -> tuple[list, list] | None:
        """The incremental build's base as (F, D) stacks, one matrix per
        spin channel -- or None: the next build is a full one."""
        if self.base is None:
            return None
        return tuple(
            [a] if self.density.ndim == 2 else list(a) for a in self.base
        )

    @property
    def spin_densities(self) -> list[np.ndarray]:
        """One density per spin channel, whichever layout was stored."""
        return [self.density] if self.density.ndim == 2 else list(self.density)

    @property
    def diis_window(self) -> tuple[list, list]:
        """The DIIS ``(focks, errors)`` window as the driver keeps it:
        oldest first, each entry a ``(k_occ, n, n)`` stack of the occupied
        channels."""
        mats = (self.diis_focks, self.diis_errors)
        if self.density.ndim == 2:
            return tuple([m[None] for m in a] for a in mats)
        return tuple(list(np.stack(a, axis=1)) if a else [] for a in mats)


def checkpoint_path(directory: str | Path, iteration: int) -> Path:
    return Path(directory) / f"scf_ckpt_{iteration:04d}.npz"


def save_checkpoint(
    directory: str | Path,
    iteration: int,
    density: np.ndarray,
    energy: float,
    energy_history: list[float],
    diis=None,
    guard=None,
    *,
    base,
) -> Path:
    """Atomically write iteration state; returns the snapshot path.

    ``density`` is one matrix or a list of them, one per spin channel
    (a single channel is written in the bare one-channel layout);
    ``diis`` is the run's :class:`~repro.scf.diis.DIIS` (or None), whose
    entries are one matrix or a stack of the occupied channels'.
    ``guard`` (optional) is an
    :class:`~repro.scf.guard.SCFGuard` whose remediation state is
    persisted alongside the numerical state; ``base`` is the
    ``(focks, densities)`` spin stacks the next incremental build adds to
    (None: the run keeps none).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(density, np.ndarray) and density.ndim == 2:
        density = [density]
    n = density[0].shape[0]
    stacked = len(density) > 1  # else the bare layout: no spin axis
    focks, errors = (
        np.stack(mats, axis=1) if stacked and mats
        else np.reshape(mats, ((0,) if stacked else ()) + (len(mats), n, n))
        for mats in (diis.state_arrays() if diis is not None else ([], []))
    )
    density = np.stack(density) if stacked else density[0]
    payload = {
        "iteration": np.int64(iteration),
        "density": np.asarray(density, dtype=np.float64),
        "energy": np.float64(energy),
        "energy_history": np.asarray(energy_history, dtype=np.float64),
        "diis_focks": focks,
        "diis_errors": errors,
    }
    if guard is not None:
        payload["guard_json"] = np.str_(guard.state_json())
    if base is not None:
        for key, mats in zip(("base_fock", "base_density"), base):
            payload[key] = np.asarray(
                np.stack(mats) if stacked else mats[0], dtype=np.float64
            )
    payload[_DIGEST_KEY] = np.str_(payload_digest(payload))
    path = checkpoint_path(directory, iteration)
    tmp = path.with_suffix(".npz.tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path, verify: bool = True) -> Checkpoint:
    """Load one snapshot, verifying integrity unless ``verify=False``.

    Verification re-derives the payload digest and compares it against
    the stored ``payload_sha256`` (a snapshot without one fails), then
    validates the arrays themselves: all entries finite, ``density``
    square (per spin channel), DIIS stacks one axis deeper than the
    density with ``n`` matching it.  Failure
    raises :class:`CheckpointIntegrityError`.
    """
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files}
    if verify:
        if _DIGEST_KEY not in arrays:
            raise CheckpointIntegrityError(f"no payload digest in {path}")
        if payload_digest(arrays) != str(arrays[_DIGEST_KEY]):
            raise CheckpointIntegrityError(f"payload digest mismatch in {path}")
        _validate_arrays(arrays, path)
    guard = None
    if "guard_json" in arrays:
        guard = json.loads(str(arrays["guard_json"]))
    return Checkpoint(
        iteration=int(arrays["iteration"]),
        density=arrays["density"],
        energy=float(arrays["energy"]),
        base=(arrays["base_fock"], arrays["base_density"])
        if "base_fock" in arrays else None,
        energy_history=[float(e) for e in arrays["energy_history"]],
        diis_focks=list(arrays["diis_focks"]),
        diis_errors=list(arrays["diis_errors"]),
        guard=guard,
    )


def _validate_arrays(arrays: dict, path) -> None:
    """Semantic validation: finite values, consistent shapes."""
    density = arrays["density"]
    if density.ndim not in (2, 3) or density.shape[-2] != density.shape[-1]:
        raise CheckpointIntegrityError(
            f"density shape {density.shape} is not square in {path}"
        )
    n = density.shape[-1]
    for name in ("base_fock", "base_density"):
        if name in arrays and arrays[name].shape != density.shape:
            raise CheckpointIntegrityError(
                f"'{name}' shape {arrays[name].shape} does not match the "
                f"density's {density.shape} in {path}"
            )
    for name in ("density", "energy", "energy_history", "base_fock", "base_density"):
        if name in arrays and not np.isfinite(arrays[name]).all():
            raise CheckpointIntegrityError(
                f"non-finite values in '{name}' of {path}"
            )
    for name in ("diis_focks", "diis_errors"):
        stack = arrays[name]
        if stack.ndim != density.ndim + 1 or (
            stack.size and stack.shape[-2:] != (n, n)
        ):
            raise CheckpointIntegrityError(
                f"'{name}' shape {stack.shape} inconsistent with "
                f"density n={n} in {path}"
            )
        if not np.isfinite(stack).all():
            raise CheckpointIntegrityError(
                f"non-finite values in '{name}' of {path}"
            )


def checkpoint_paths(directory: str | Path) -> list[Path]:
    """Every snapshot in ``directory``, newest (highest iteration) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: list[tuple[int, Path]] = []
    for entry in directory.iterdir():
        m = _CKPT_RE.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    return [p for _, p in sorted(found, reverse=True)]


def prune_checkpoints(directory: str | Path, keep: int = 3) -> int:
    """Delete all but the newest ``keep`` snapshots; returns the count.

    Long-running service jobs checkpoint every iteration; pruning after
    each successful run (and on worker shutdown) bounds per-job disk to
    ``keep`` snapshots while preserving the corruption-fallback margin
    of :func:`load_latest_intact` (``keep >= 2`` recommended: a torn
    newest file still leaves an intact predecessor).
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    removed = 0
    for path in checkpoint_paths(directory)[keep:]:
        try:
            path.unlink()
            removed += 1
        except OSError:  # already gone (concurrent prune) or read-only
            pass
    return removed


def load_latest_intact(directory: str | Path) -> Checkpoint | None:
    """The most recent snapshot that loads *and* passes integrity checks.

    A snapshot that is truncated (crash mid-``os.replace`` on exotic
    filesystems, full disk), lacks or fails its payload digest, fails the
    ZIP container's CRC (bit rot), carries NaN/Inf, or has mismatched
    shapes must not kill -- or silently poison -- the restart: it is
    skipped with a :class:`CheckpointCorruptionWarning` and the next
    older snapshot is tried.  Returns None when no intact snapshot
    exists.
    """
    for path in checkpoint_paths(directory):
        try:
            return load_checkpoint(path, verify=True)
        except Exception as exc:  # zipfile/OS/Value/Integrity errors
            warnings.warn(
                f"skipping corrupted checkpoint {path}: "
                f"{type(exc).__name__}: {exc}",
                CheckpointCorruptionWarning,
                stacklevel=2,
            )
    return None
