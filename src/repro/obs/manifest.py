"""Run ledger: durable per-run artifact directories.

Every interesting run should survive its process.  A :class:`RunLedger`
owns one **run directory** in the curv-embedding artifact layout
(SNIPPETS.md Snippet 1):

* ``manifest.json`` -- written at *start*: the command, its config and a
  stable hash of it, molecule/basis/seed identification, and the full
  :func:`provenance` block (package version, git SHA, numpy/scipy/python
  versions, CPU count, platform), stamped with a timezone-aware UTC
  start time.  A crash after this point still leaves a findable record.
* ``metrics.jsonl`` -- *streamed* snapshots of the current session's metrics
  registry, one JSON object per line: the SCF driver snapshots after
  every iteration, the Fock/report drivers after every build, and
  :meth:`RunLedger.close` always appends a ``final`` snapshot.
* ``summary.json`` -- written at *close*: exit code, wall time, phase
  profile, hotspot table, and any result fields the command attached.

The ledger is an attribute of the current ``repro.obs.session`` read
through :func:`repro.obs.get_ledger` (same pattern as the tracer,
metrics registry, and phase profiler); the default :data:`NULL_LEDGER`
makes every probe a no-op.  The CLI arms it with ``--run-dir PATH`` on
every subcommand.

:func:`load_run` reads a persisted run directory back -- it is what lets
``repro report <rundir>`` render a report *after the fact* and what the
regression observatory feeds on -- and raises :class:`LedgerError` with
a **field-named** message (never a traceback soup) on anything missing
or malformed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
SUMMARY_NAME = "summary.json"

#: manifest fields load_run refuses to go on without
REQUIRED_MANIFEST_FIELDS = (
    "schema", "command", "config", "config_hash", "provenance",
    "started_utc",
)
#: summary fields load_run refuses to go on without
REQUIRED_SUMMARY_FIELDS = ("finished_utc", "exit_code")

LEDGER_SCHEMA = 1


class LedgerError(ValueError):
    """A run directory is missing or structurally broken (field-named)."""


def utc_now_iso() -> str:
    """Timezone-aware UTC timestamp, ISO-8601 with offset."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def config_hash(config: dict) -> str:
    """Stable content hash of a config mapping (key order independent)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str)
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _git_sha() -> str:
    """HEAD of the repository containing this package (or "unknown")."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _dist_version(name: str) -> str:
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version(name)
    except Exception:
        return "unknown"


def provenance() -> dict:
    """The provenance block embedded in every manifest.

    The same block backs ``repro info`` and ``repro --version``, so what
    a human sees and what a manifest records cannot drift.
    """
    import platform

    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except Exception:  # pragma: no cover - scipy is a hard dependency
        scipy_version = "unavailable"
    return {
        "package": "repro",
        "version": _dist_version("repro"),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


class RunLedger:
    """Writes one run directory (manifest / metrics stream / summary)."""

    enabled = True

    def __init__(
        self,
        directory: str | os.PathLike,
        command: str,
        config: dict | None = None,
        molecule: str | None = None,
        basis: str | None = None,
        seed: int | None = None,
        argv: list[str] | None = None,
        extra: dict | None = None,
    ):
        self.path = Path(directory)
        self.path.mkdir(parents=True, exist_ok=True)
        self._t0 = time.perf_counter()
        self._seq = 0
        self._closed = False
        self.summary_extra: dict[str, Any] = {}
        self.phases: list[dict] | None = None
        self.hotspots: dict | None = None
        cfg = dict(config or {})
        self.manifest = {
            "schema": LEDGER_SCHEMA,
            "command": command,
            "argv": list(argv) if argv is not None else list(sys.argv[1:]),
            "config": cfg,
            "config_hash": config_hash(cfg),
            "molecule": molecule,
            "basis": basis,
            "seed": seed,
            "provenance": provenance(),
            "started_utc": utc_now_iso(),
        }
        if extra:
            # caller-owned identification (e.g. the service's job id /
            # attempt / worker) -- must not shadow the schema fields
            for key, value in extra.items():
                self.manifest.setdefault(key, value)
        with open(self.path / MANIFEST_NAME, "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._metrics_fh = open(
            self.path / METRICS_NAME, "w", encoding="utf-8"
        )

    # -- streaming -------------------------------------------------------

    def snapshot(self, label: str, **extra) -> None:
        """Append one snapshot line of the current session's metrics
        registry to ``metrics.jsonl``."""
        if self._closed:
            return
        from repro.obs.ambient import get_metrics

        record = {
            "seq": self._seq,
            "ts_utc": utc_now_iso(),
            "wall_s": round(time.perf_counter() - self._t0, 6),
            "label": label,
        }
        if extra:
            record.update(extra)
        record["metrics"] = get_metrics().to_json()
        self._metrics_fh.write(json.dumps(record, default=str) + "\n")
        self._metrics_fh.flush()
        self._seq += 1

    def add_summary(self, **fields) -> None:
        """Attach result fields to the eventual ``summary.json``."""
        self.summary_extra.update(fields)

    def attach_profile(self, profiler=None, hotspots=None) -> None:
        """Record a phase profile (one that saw a phase) and/or hotspot
        table in the summary."""
        if profiler is not None and profiler.stats:
            self.phases = profiler.to_json()
        if hotspots is not None:
            self.hotspots = hotspots.to_json()

    # -- finalization ------------------------------------------------------

    def close(self, exit_code: int = 0) -> None:
        """Write ``summary.json`` and seal the run directory (idempotent)."""
        if self._closed:
            return
        self.snapshot("final")
        self._closed = True
        self._metrics_fh.close()
        summary = {
            "finished_utc": utc_now_iso(),
            "exit_code": int(exit_code),
            "wall_s": round(time.perf_counter() - self._t0, 4),
            "snapshots": self._seq,
        }
        if self.phases is not None:
            summary["phases"] = self.phases
        if self.hotspots is not None:
            summary["hotspots"] = self.hotspots
        summary.update(self.summary_extra)
        with open(self.path / SUMMARY_NAME, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


class NullLedger(RunLedger):
    """Free-of-charge ledger: every probe is a no-op."""

    enabled = False

    def __init__(self):
        self._closed = True
        self.summary_extra = {}
        self.phases = None
        self.hotspots = None

    def snapshot(self, label: str, **extra) -> None:
        pass

    def add_summary(self, **fields) -> None:
        pass

    def attach_profile(self, profiler=None, hotspots=None) -> None:
        pass

    def close(self, exit_code: int = 0) -> None:
        pass


#: the shared disabled ledger; ``get_ledger()`` returns it by default
NULL_LEDGER = NullLedger()

# ---------------------------------------------------------------------------
# loading persisted runs back
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One persisted run directory, loaded and validated."""

    path: Path
    manifest: dict
    snapshots: list[dict] = field(default_factory=list)
    summary: dict | None = None

    @property
    def title(self) -> str:
        mol = self.manifest.get("molecule") or ""
        basis = self.manifest.get("basis") or ""
        parts = [p for p in (self.manifest.get("command"), mol, basis) if p]
        return "-".join(parts) or self.path.name

    @property
    def phases(self) -> list[dict]:
        return list((self.summary or {}).get("phases") or [])

    @property
    def hotspots(self) -> dict | None:
        return (self.summary or {}).get("hotspots")


def _read_json(path: Path, artifact: str) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise LedgerError(
            f"run directory {path.parent} is missing the required "
            f"artifact {artifact!r}"
        ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LedgerError(f"{artifact} is not valid JSON: {exc}") from None


def load_run(directory: str | os.PathLike, strict: bool = True) -> RunRecord:
    """Load a run directory written by :class:`RunLedger`.

    With ``strict=True`` (default) an incomplete run -- no
    ``summary.json``, i.e. the process died before :meth:`RunLedger.close`
    -- is an error; ``strict=False`` returns the partial record with
    ``summary=None`` so crashed runs remain inspectable.
    """
    path = Path(directory)
    if not path.is_dir():
        raise LedgerError(f"run directory {path} does not exist")
    manifest = _read_json(path / MANIFEST_NAME, MANIFEST_NAME)
    if not isinstance(manifest, dict):
        raise LedgerError(f"{MANIFEST_NAME}: expected a JSON object")
    for fld in REQUIRED_MANIFEST_FIELDS:
        if fld not in manifest:
            raise LedgerError(
                f"{MANIFEST_NAME}: missing required field {fld!r}"
            )
    snapshots: list[dict] = []
    metrics_path = path / METRICS_NAME
    if metrics_path.exists():
        for lineno, line in enumerate(
            metrics_path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                snapshots.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise LedgerError(
                    f"{METRICS_NAME}: line {lineno} is not valid JSON: {exc}"
                ) from None
    elif strict:
        raise LedgerError(
            f"run directory {path} is missing the required artifact "
            f"{METRICS_NAME!r}"
        )
    summary = None
    if (path / SUMMARY_NAME).exists():
        summary = _read_json(path / SUMMARY_NAME, SUMMARY_NAME)
        for fld in REQUIRED_SUMMARY_FIELDS:
            if fld not in summary:
                raise LedgerError(
                    f"{SUMMARY_NAME}: missing required field {fld!r}"
                )
    elif strict:
        raise LedgerError(
            f"run directory {path} has no {SUMMARY_NAME} -- the run never "
            "completed (pass strict=False to inspect the partial record)"
        )
    return RunRecord(
        path=path, manifest=manifest, snapshots=snapshots, summary=summary
    )


def find_runs(root: str | os.PathLike) -> list[RunRecord]:
    """All loadable run directories directly under ``root``, oldest first.

    Unloadable subdirectories are skipped (a half-written run must not
    take the observatory down); completed runs sort by start time.
    """
    rootp = Path(root)
    records = []
    if not rootp.is_dir():
        return records
    for sub in sorted(rootp.iterdir()):
        if not (sub / MANIFEST_NAME).exists():
            continue
        try:
            records.append(load_run(sub, strict=False))
        except LedgerError:
            continue
    records.sort(key=lambda r: str(r.manifest.get("started_utc", "")))
    return records
