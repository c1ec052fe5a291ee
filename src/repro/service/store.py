"""Durable SQLite job store: the service's crash-tolerant source of truth.

Every job the service ever sees lives in one WAL-mode SQLite database
(``queue.db`` inside the queue directory), so submissions survive the
process that made them and any number of worker/supervisor crashes.
Robustness invariants:

* **Atomic state transitions.**  Every transition is a single guarded
  ``UPDATE ... WHERE id = ? AND state = ? [AND lease_owner = ?]`` inside
  a ``BEGIN IMMEDIATE`` transaction, so two workers can never both own a
  job and a stale worker (one whose lease expired and whose job was
  re-enqueued) can never record a result: its guarded update matches
  zero rows and the result is discarded.

  The machine: ``queued -> leased -> running -> done | failed |
  quarantined``, with the retry edge ``leased|running -> queued``
  (lease expiry, worker release, retryable failure, wall-clock timeout).

* **Time-limited leases.**  A claim stamps ``lease_owner`` and
  ``lease_expires``; the worker renews by heartbeat once per SCF
  iteration.  A worker that dies or hangs stops renewing, the
  supervisor's :meth:`JobStore.expire_leases` re-enqueues the job, and
  the next worker resumes from the job's latest intact checkpoint --
  bitwise-identical to an uninterrupted run (see
  :mod:`repro.scf.checkpoint`).

* **Exponential backoff + deterministic jitter.**  A retried job is not
  eligible before ``not_before = now + backoff_delay(...)``; the jitter
  is a hash of ``(job id, attempt)`` so re-running a chaos scenario with
  the same seed reproduces the same schedule (the package-wide
  "same seed -> same run" discipline).

* **Bounded attempts, then quarantine.**  Poison inputs cannot loop
  forever: after ``max_attempts`` the job lands in ``quarantined`` with
  the captured traceback in its ``error`` column for post-mortems.

Every transition is also appended to an ``events`` table -- the
observable trail the tests, ``repro status`` and the service metrics
(:func:`repro.obs.metrics.export_service`) read back.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.manifest import utc_now_iso

DB_NAME = "queue.db"

#: every state a job row can be in
STATES = ("queued", "leased", "running", "done", "failed", "quarantined")
#: states with no outgoing edges
TERMINAL_STATES = ("done", "failed", "quarantined")
#: states holding a live lease
LEASED_STATES = ("leased", "running")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    spec          TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'queued',
    priority      INTEGER NOT NULL DEFAULT 0,
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL DEFAULT 5,
    timeout_s     REAL NOT NULL DEFAULT 600.0,
    lease_s       REAL NOT NULL DEFAULT 30.0,
    not_before    REAL NOT NULL DEFAULT 0.0,
    lease_owner   TEXT,
    lease_expires REAL,
    started_at    REAL,
    job_dir       TEXT,
    result        TEXT,
    error         TEXT,
    created_utc   TEXT NOT NULL,
    updated_utc   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim
    ON jobs (state, not_before, priority, id);
CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id  INTEGER NOT NULL,
    event   TEXT NOT NULL,
    detail  TEXT,
    ts_utc  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_events_job ON events (job_id, seq);
"""


#: the most a retry backoff is stretched, as a fraction of itself
JITTER = 0.25


def backoff_delay(attempt: int, job_id: int) -> float:
    """Exponential backoff with deterministic jitter.

    ``0.5 s * 2**(attempt-1)`` capped at 60 s, stretched by up to
    :data:`JITTER` (fraction) derived from ``sha256(job_id:attempt)`` --
    deterministic so chaos runs with a fixed seed reproduce their
    retry schedule, but de-synchronized across jobs so a burst of
    simultaneous failures does not re-stampede the pool.
    """
    delay = min(60.0, 0.5 * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
    frac = int.from_bytes(digest[:8], "big") / 2**64
    return delay * (1.0 + JITTER * frac)


@dataclass
class Job:
    """One job row, spec/result decoded."""

    id: int
    spec: dict
    state: str
    priority: int
    attempts: int
    max_attempts: int
    timeout_s: float
    lease_s: float
    not_before: float
    lease_owner: str | None
    lease_expires: float | None
    started_at: float | None
    job_dir: str | None
    result: dict | None
    error: str | None
    created_utc: str
    updated_utc: str


class JobStore:
    """The durable queue: one directory holding ``queue.db`` + job dirs.

    Connections are opened lazily per process (``fork`` safe: a child
    never reuses the parent's sqlite handle) with WAL journaling and a
    busy timeout, so the supervisor and every worker hammer the same
    file without corrupting it.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = self.root / DB_NAME
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None
        self._lock = threading.Lock()
        # executescript issues its own COMMIT; no transaction wrapper
        self._connect().executescript(_SCHEMA)

    # -- connection management ------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None or self._conn_pid != os.getpid():
            conn = sqlite3.connect(
                self.db_path, timeout=10.0, isolation_level=None,
                check_same_thread=False,
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=10000")
            self._conn = conn
            self._conn_pid = os.getpid()
        return self._conn

    def close(self) -> None:
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    class _Tx:
        def __init__(self, store: "JobStore"):
            self.store = store

        def __enter__(self) -> sqlite3.Connection:
            self.store._lock.acquire()
            self.conn = self.store._connect()
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn

        def __exit__(self, exc_type, exc, tb) -> None:
            try:
                if exc_type is None:
                    self.conn.execute("COMMIT")
                else:
                    self.conn.execute("ROLLBACK")
            finally:
                self.store._lock.release()

    def _tx(self) -> "JobStore._Tx":
        return JobStore._Tx(self)

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _row_to_job(row: sqlite3.Row) -> Job:
        return Job(
            id=row["id"],
            spec=json.loads(row["spec"]),
            state=row["state"],
            priority=row["priority"],
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            timeout_s=row["timeout_s"],
            lease_s=row["lease_s"],
            not_before=row["not_before"],
            lease_owner=row["lease_owner"],
            lease_expires=row["lease_expires"],
            started_at=row["started_at"],
            job_dir=row["job_dir"],
            result=json.loads(row["result"]) if row["result"] else None,
            error=row["error"],
            created_utc=row["created_utc"],
            updated_utc=row["updated_utc"],
        )

    @staticmethod
    def _event(conn: sqlite3.Connection, job_id: int, event: str,
               detail: str = "") -> None:
        # to the millisecond: a trail's gaps are a fraction of a poll tick
        ts = datetime.now(timezone.utc).isoformat(timespec="milliseconds")
        conn.execute(
            "INSERT INTO events (job_id, event, detail, ts_utc)"
            " VALUES (?, ?, ?, ?)",
            (job_id, event, detail[:2000], ts),
        )

    def job_directory(self, job_id: int) -> Path:
        """The per-job artifact directory (checkpoints + run ledger)."""
        return self.root / "jobs" / f"job_{job_id:06d}"

    # -- producer side --------------------------------------------------

    def submit(
        self,
        spec: dict,
        priority: int = 0,
        max_attempts: int = 5,
        timeout_s: float = 600.0,
        lease_s: float = 30.0,
    ) -> Job:
        """Insert a new ``queued`` job; returns the stored row."""
        if not isinstance(spec, dict):
            raise TypeError("job spec must be a dict")
        now_iso = utc_now_iso()
        with self._tx() as conn:
            cur = conn.execute(
                "INSERT INTO jobs (spec, priority, max_attempts, timeout_s,"
                " lease_s, created_utc, updated_utc)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (json.dumps(spec, sort_keys=True), priority, max_attempts,
                 timeout_s, lease_s, now_iso, now_iso),
            )
            job_id = cur.lastrowid
            job_dir = str(self.job_directory(job_id))
            conn.execute(
                "UPDATE jobs SET job_dir = ? WHERE id = ?", (job_dir, job_id)
            )
            self._event(conn, job_id, "submitted",
                        spec.get("molecule", spec.get("kind", "")))
        return self.get(job_id)

    def cancel(self, job_id: int) -> bool:
        """``queued|leased|running -> failed`` with error "cancelled"."""
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'failed', error = 'cancelled',"
                " lease_owner = NULL, lease_expires = NULL, updated_utc = ?"
                " WHERE id = ? AND state IN ('queued', 'leased', 'running')",
                (utc_now_iso(), job_id),
            )
            if cur.rowcount:
                self._event(conn, job_id, "cancelled")
        return bool(cur.rowcount)

    # -- worker side ----------------------------------------------------

    def claim(self, owner: str) -> Job | None:
        """Atomically lease the best eligible queued job, or None.

        Eligibility: ``state = 'queued'`` and past its backoff
        (``not_before <= now``); best = highest priority, then oldest id
        (FIFO within a priority band).
        """
        now = time.time()
        with self._tx() as conn:
            row = conn.execute(
                "SELECT id, lease_s FROM jobs"
                " WHERE state = 'queued' AND not_before <= ?"
                " ORDER BY priority DESC, id ASC LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            cur = conn.execute(
                "UPDATE jobs SET state = 'leased', lease_owner = ?,"
                " lease_expires = ?, updated_utc = ?"
                " WHERE id = ? AND state = 'queued'",
                (owner, now + row["lease_s"], utc_now_iso(), row["id"]),
            )
            if not cur.rowcount:  # pragma: no cover - guarded by BEGIN IMMEDIATE
                return None
            self._event(conn, row["id"], "leased", owner)
            job_id = row["id"]
        return self.get(job_id)

    def start(self, job_id: int, owner: str) -> bool:
        """``leased -> running`` (stamps ``started_at`` for the timeout)."""
        now = time.time()
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?,"
                " updated_utc = ? WHERE id = ? AND state = 'leased'"
                " AND lease_owner = ?",
                (now, utc_now_iso(), job_id, owner),
            )
            if cur.rowcount:
                self._event(conn, job_id, "started", owner)
        return bool(cur.rowcount)

    def heartbeat(self, job_id: int, owner: str) -> bool:
        """Renew the lease; False means the lease was lost (stop working)."""
        now = time.time()
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET lease_expires = ? + lease_s, updated_utc = ?"
                " WHERE id = ? AND lease_owner = ?"
                " AND state IN ('leased', 'running')",
                (now, utc_now_iso(), job_id, owner),
            )
        return bool(cur.rowcount)

    def complete(self, job_id: int, owner: str, result: dict) -> bool:
        """``running -> done``; False = lease lost, result discarded.

        The owner guard is what makes recording idempotent: if the lease
        expired and another worker re-ran the job, at most one of the
        two guarded updates can match, so a job is never
        recorded-as-done twice.
        """
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'done', result = ?,"
                " lease_owner = NULL, lease_expires = NULL, updated_utc = ?"
                " WHERE id = ? AND state = 'running' AND lease_owner = ?",
                (json.dumps(result, sort_keys=True, default=str),
                 utc_now_iso(), job_id, owner),
            )
            if cur.rowcount:
                self._event(conn, job_id, "done", owner)
        return bool(cur.rowcount)

    def release(self, job_id: int, owner: str, reason: str = "") -> bool:
        """Graceful give-back: ``leased|running -> queued``, no attempt
        charged (used by a worker shutting down cleanly mid-job)."""
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'queued', lease_owner = NULL,"
                " lease_expires = NULL, started_at = NULL, not_before = 0,"
                " updated_utc = ?"
                " WHERE id = ? AND lease_owner = ?"
                " AND state IN ('leased', 'running')",
                (utc_now_iso(), job_id, owner),
            )
            if cur.rowcount:
                self._event(conn, job_id, "released", reason)
        return bool(cur.rowcount)

    def fail(
        self,
        job_id: int,
        owner: str | None,
        error: str,
        retryable: bool = True,
        now: float | None = None,
        event: str = "retry",
    ) -> str | None:
        """Charge an attempt; re-enqueue with backoff or quarantine.

        Returns the resulting state (``"queued"`` or ``"quarantined"``),
        or None when the guarded transition matched
        nothing (lease already lost).  ``owner=None`` bypasses the owner
        guard -- reserved for the supervisor's timeout path, which acts
        on a lease it is about to kill.
        """
        now = time.time() if now is None else now
        owner_sql = "" if owner is None else " AND lease_owner = ?"
        with self._tx() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts, state FROM jobs"
                f" WHERE id = ? AND state IN ('leased', 'running'){owner_sql}",
                (job_id,) if owner is None else (job_id, owner),
            ).fetchone()
            if row is None:
                return None
            attempts = row["attempts"] + 1
            if not retryable or attempts >= row["max_attempts"]:
                # poison input (deterministic error) or exhausted
                # attempts: park it with the traceback for post-mortem
                state = "quarantined"
                conn.execute(
                    "UPDATE jobs SET state = ?, attempts = ?, error = ?,"
                    " lease_owner = NULL, lease_expires = NULL,"
                    " updated_utc = ? WHERE id = ?",
                    (state, attempts, error[:20000], utc_now_iso(), job_id),
                )
                self._event(conn, job_id, state, error.splitlines()[-1]
                            if error else "")
            else:
                state = "queued"
                delay = backoff_delay(attempts, job_id)
                conn.execute(
                    "UPDATE jobs SET state = 'queued', attempts = ?,"
                    " error = ?, lease_owner = NULL, lease_expires = NULL,"
                    " started_at = NULL, not_before = ?,"
                    " updated_utc = ? WHERE id = ?",
                    (attempts, error[:20000], now + delay, utc_now_iso(), job_id),
                )
                self._event(
                    conn, job_id, event,
                    f"attempt {attempts}, backoff {delay:.2f}s",
                )
        return state

    # -- supervisor side ------------------------------------------------

    def expire_leases(self, now: float | None = None, dead: tuple | list = ()) -> list[int]:
        """Re-enqueue (or quarantine) every job whose lease has expired or
        whose owner is one of the ``dead`` workers (their process exited).

        The supervisor calls this every tick with the workers it reaped;
        it is the recovery path for workers that died (SIGKILL, OOM kill,
        power loss: at once) or hung (stopped heartbeating: by TTL).  Each
        job is failed under its owner's guard.  Returns the job ids.
        """
        now = time.time() if now is None else now
        rows = self._connect().execute(
            "SELECT id, lease_owner FROM jobs WHERE state IN ('leased', 'running')"
            f" AND (lease_expires < ? OR lease_owner IN ({', '.join('?' * len(dead))}))",
            (now, *dead),
        ).fetchall()
        return [row["id"] for row in rows if self.fail(
            row["id"], row["lease_owner"], "lease expired (worker died or hung)",
            retryable=True, now=now, event="lease_expired",
        ) is not None]

    def timeout_job(self, job_id: int, now: float | None = None) -> str | None:
        """Charge a wall-clock timeout against a running job."""
        return self.fail(
            job_id, None, "wall-clock timeout exceeded", retryable=True,
            now=now, event="timeout",
        )

    def running_past_timeout(self, now: float | None = None) -> list[Job]:
        """Running jobs whose wall-clock budget is exhausted."""
        now = time.time() if now is None else now
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE state = 'running'"
                " AND started_at IS NOT NULL AND started_at + timeout_s < ?",
                (now,),
            ).fetchall()
        return [self._row_to_job(r) for r in rows]

    # -- introspection --------------------------------------------------

    def get(self, job_id: int) -> Job:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no job with id {job_id}")
        return self._row_to_job(row)

    def jobs(self, states: tuple[str, ...] | None = None) -> list[Job]:
        with self._connect() as conn:
            if states:
                marks = ",".join("?" * len(states))
                rows = conn.execute(
                    f"SELECT * FROM jobs WHERE state IN ({marks})"
                    " ORDER BY id", states,
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT * FROM jobs ORDER BY id"
                ).fetchall()
        return [self._row_to_job(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """``{state: n}`` over every known state (zeros included)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in STATES}
        for row in rows:
            out[row["state"]] = row["n"]
        return out

    def event_counts(self) -> dict[str, int]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT event, COUNT(*) AS n FROM events GROUP BY event"
            ).fetchall()
        return {row["event"]: row["n"] for row in rows}

    def events_for(self, job_id: int) -> list[tuple[str, str, str]]:
        """``(event, detail, ts_utc)`` history of one job, oldest first."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT event, detail, ts_utc FROM events"
                " WHERE job_id = ? ORDER BY seq", (job_id,),
            ).fetchall()
        return [(r["event"], r["detail"], r["ts_utc"]) for r in rows]

    def drained(self) -> bool:
        """True when no job is queued, leased, or running."""
        counts = self.counts()
        return all(counts[s] == 0 for s in ("queued", "leased", "running"))

    def stats(self) -> dict:
        """Snapshot for ``repro status`` / metrics export."""
        return {
            "path": str(self.db_path),
            "counts": self.counts(),
            "events": self.event_counts(),
        }
