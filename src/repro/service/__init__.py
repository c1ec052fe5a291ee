"""SCF-as-a-service: durable job queue + lease-based worker pool.

The execution layer counterpart of the paper's resilience story: the
simulator (PR 4) proved Fock construction keeps making progress when
simulated ranks die; this package makes *real* SCF jobs survive real
worker crashes, hangs, and poison inputs.

* :mod:`repro.service.store` -- SQLite-backed (WAL) durable job store
  with atomic state transitions
  ``queued -> leased -> running -> done | failed | quarantined``,
  time-limited leases renewed by heartbeat, exponential backoff with
  deterministic jitter, and quarantine with the captured traceback
  after bounded attempts.
* :mod:`repro.service.worker` -- the worker-process main loop: claim a
  lease, run the job with per-iteration heartbeats and checkpointing,
  resume bitwise-exact from the latest intact checkpoint (a run out of
  memory drops its integral store itself and finishes direct).
* :mod:`repro.service.supervisor` -- ``repro serve``: spawns the
  multi-process pool, expires dead leases, enforces per-job wall-clock
  timeouts (SIGTERM then SIGKILL), and respawns crashed workers.
* :mod:`repro.service.chaos` -- the chaos gate: with seeded worker
  SIGKILLs mid-iteration every submitted job still reaches ``done`` and
  final energies match fault-free baselines to <= 1e-12.

See docs/ROBUSTNESS.md ("Service resilience") for the state machine.
"""

from repro.service.store import (  # noqa: F401
    Job,
    JobStore,
    STATES,
    TERMINAL_STATES,
    backoff_delay,
)
from repro.service.worker import LeaseLostError, worker_main  # noqa: F401
from repro.service.supervisor import ServeResult, serve  # noqa: F401
from repro.service.chaos import run_service_chaos  # noqa: F401
