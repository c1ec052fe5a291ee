"""Offline integrity audit: ``repro verify <dir>``.

Walks a directory tree and verifies every integrity-framed artifact the
stack writes, *without* touching any of it:

* **integral stores** -- any directory holding a store's manifest or
  a data file, audited by :func:`repro.integrals.store.audit_store_dir`
  (the one module that knows the layout): manifest, data file size,
  one CRC-32 per segment and the whole-file SHA-256.  A store missing a
  file is a finding, and a store of an older format is flagged for a
  refill;
* **SCF checkpoints** (``scf_ckpt_NNNN.npz``) -- each snapshot loads,
  passes its payload digest, and carries finite, shape-consistent
  arrays (:func:`repro.scf.checkpoint.load_checkpoint` with
  ``verify=True``);
* **run-ledger directories** (:mod:`repro.obs.manifest`) -- the
  manifest carries its required fields, ``metrics.jsonl`` is
  line-by-line valid JSON, and ``summary.json`` (when present) parses.

The audit is the recovery ladder's last rung made inspectable: after a
chaos run (or a real incident) it answers "which artifacts in this
tree can still be trusted?" -- and the CI ``sdc-chaos`` job runs it
over the gate's corrupted work tree to prove every planted corruption
is findable offline, not only in the hot path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.integrals.store import audit_store_dir, is_store_dir
from repro.obs.manifest import MANIFEST_NAME, REQUIRED_MANIFEST_FIELDS, load_run
from repro.scf.checkpoint import checkpoint_paths, load_checkpoint


@dataclass
class Finding:
    """One artifact that failed (or could not complete) verification."""

    path: str
    kind: str  # "store" | "checkpoint" | "ledger"
    problem: str

    def to_dict(self) -> dict:
        return {"path": self.path, "kind": self.kind, "problem": self.problem}


@dataclass
class VerifyReport:
    """Outcome of one offline audit."""

    root: str
    stores_audited: int = field(default=0, init=False)
    checkpoints_audited: int = field(default=0, init=False)
    runs_audited: int = field(default=0, init=False)
    segments_checked: int = field(default=0, init=False)
    findings: list[Finding] = field(default_factory=list, init=False)

    @property
    def clean(self) -> bool:
        return not self.findings

    def add(self, path, kind: str, problem: str) -> None:
        self.findings.append(Finding(str(path), kind, problem))

    def summary_lines(self) -> list[str]:
        lines = [
            f"audited {self.stores_audited} store(s) "
            f"({self.segments_checked} segments), "
            f"{self.checkpoints_audited} checkpoint(s), "
            f"{self.runs_audited} run ledger(s) under {self.root}",
        ]
        for f in self.findings:
            lines.append(f"CORRUPT [{f.kind}] {f.path}: {f.problem}")
        lines.append(
            "verdict: "
            + ("CLEAN" if self.clean else f"{len(self.findings)} finding(s)")
        )
        return lines

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "stores_audited": self.stores_audited,
            "checkpoints_audited": self.checkpoints_audited,
            "runs_audited": self.runs_audited,
            "segments_checked": self.segments_checked,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
        }


def audit_store(path: str | Path, report: VerifyReport) -> None:
    """Verify one on-disk integral store bottom-up (no attach needed)."""
    report.stores_audited += 1
    problems, nsegments = audit_store_dir(path)
    report.segments_checked += nsegments
    for problem in problems:
        report.add(path, "store", problem)


def audit_checkpoints(path: str | Path, report: VerifyReport) -> int:
    """Verify every SCF snapshot in a directory; returns how many failed."""
    failed = 0
    for ckpt in checkpoint_paths(path):
        report.checkpoints_audited += 1
        try:
            load_checkpoint(ckpt, verify=True)
        except Exception as exc:
            failed += 1
            report.add(
                ckpt, "checkpoint", f"{type(exc).__name__}: {exc}"
            )
    return failed


def audit_ledger(path: str | Path, report: VerifyReport) -> None:
    """Verify one run-ledger directory parses and is field-complete."""
    report.runs_audited += 1
    try:
        load_run(path, strict=False)
    except Exception as exc:
        report.add(path, "ledger", str(exc))


def _is_ledger_dir(path: Path) -> bool:
    if not (path / MANIFEST_NAME).exists():
        return False
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return True  # claims to be a ledger dir but doesn't parse: audit it
    return isinstance(manifest, dict) and any(
        fld in manifest for fld in REQUIRED_MANIFEST_FIELDS
    )


def verify_tree(root: str | Path) -> VerifyReport:
    """Audit every store / checkpoint set / run ledger under ``root``."""
    root = Path(root)
    report = VerifyReport(root=str(root))
    if not root.exists():
        report.add(root, "ledger", "directory does not exist")
        return report
    dirs = [root] + sorted(
        p for p in root.rglob("*") if p.is_dir()
    )
    for directory in dirs:
        if is_store_dir(directory):
            audit_store(directory, report)
        elif _is_ledger_dir(directory):
            audit_ledger(directory, report)
        if checkpoint_paths(directory):
            audit_checkpoints(directory, report)
    return report
