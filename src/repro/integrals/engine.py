"""ERI engine abstraction consumed by all Fock builders.

An engine supplies two things:

* ``compute_rows(chunk)`` -- the ERI blocks of a chunk's class-plan
  rows, on the engine's kernel: McMurchie-Davidson's class kernel
  (:class:`MDEngine`, production) or the batched Obara-Saika kernel
  (:class:`OSEngine`, Table V's comparator); MD rescues non-finite rows
  on OS (``rescue_rows``);
* ``schwarz()`` -- the shell-pair screening matrix sigma.

Fock builds go through :func:`repro.integrals.class_batch.jk_from_plan`,
where an attached :class:`~repro.integrals.store.ERIStore` is the one
reuse layer (ERIs are density-independent: a ready store holds its own
:class:`~repro.integrals.class_batch.Supermatrix`, mapped once and
contracted by every build, which then needs neither
:meth:`ERIEngine.class_plan` nor the Schwarz matrix).
``quartets_computed`` counts only *real* computations (Table VII
call-count benchmarks stay exact); store service is tallied separately
in ``quartets_served_from_store``.
"""

from __future__ import annotations

import abc
import math
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals import class_batch
from repro.integrals.class_batch import (
    Chunk,
    ClassBatch,
    ClassPlan,
    build_class_plan,
    canonical_quartet_array,
)
from repro.integrals.eri_os import os_class_rows
from repro.integrals.pairdata import ShellPairData
from repro.integrals.schwarz import schwarz_matrix
from repro.integrals.store import ERIStore
from repro.obs import get_metrics, phase


class NonFiniteERIError(RuntimeError):
    """An ERI block came back NaN/Inf and no rescue path could fix it."""

    def __init__(self, quartet: tuple[int, int, int, int], detail: str = ""):
        self.quartet = quartet
        msg = f"ERI quartet {quartet} is non-finite"
        super().__init__(msg + (f": {detail}" if detail else ""))


class ERIEngine(abc.ABC):
    """Interface between integral generation and Fock construction."""

    #: whether ``compute_rows`` is the production class kernel: seeded
    #: ``scf`` faults corrupt only such rows
    class_kernel = False

    def __init__(
        self,
        basis: BasisSet,
        store: str | Path | ERIStore | None = None,
    ):
        self.basis = basis
        self._schwarz: np.ndarray | None = None
        #: per-basis pair data of the class kernel: the Schwarz pass,
        #: S/T/V and every class plan expand each shell pair once
        self.pair_cache = ShellPairData(basis)
        #: number of quartet blocks actually computed (used by
        #: benchmarks/tests; store service is counted separately)
        self.quartets_computed = 0
        #: number of quartet blocks read back from the integral store
        self.quartets_served_from_store = 0
        #: opt-in memory-mapped stored-integral layer (conventional SCF)
        self.integral_store: ERIStore | None = None
        #: per pool worker of the last J/K build, its wall and source
        #: counts (``[]``: a serial or served build)
        self.last_jk_worker_stats: list[dict] = []
        #: NaN/Inf sentinel on computed blocks (armed by the SCF guard,
        #: at the start of a run or by its ``reference_eri`` rung); off
        #: by default so the hot path carries zero extra cost
        self.finite_check = False
        #: non-finite blocks recomputed by ``rescue_rows``
        self.eri_rescues = 0
        #: store blocks that failed their CRC and were recomputed
        self.crc_rescues = 0
        #: seeded numerical corruption of class-kernel rows (the ``scf``
        #: fault family); see :class:`repro.runtime.faults.SCFFaultState`
        self.scf_faults = None
        #: the memoized class-batched execution plan as ``(tau, plan)``
        self._class_plan: tuple[float, ClassPlan] | None = None
        if store is not None:
            self.attach_store(store)

    @abc.abstractmethod
    def compute_rows(self, chunk: list[Chunk]) -> list[np.ndarray]:
        """Freshly computed blocks ``(len(rows), *batch.dims)`` for every
        ``(batch, rows)`` of ``chunk``."""

    def rescue_rows(self, batch: ClassBatch, rows: np.ndarray) -> np.ndarray:
        """The blocks of a class's non-finite ``rows`` recomputed on a
        second kernel; an engine without one raises, naming the first."""
        raise NonFiniteERIError(
            tuple(batch.quartets[rows[0]].tolist()), "engine has no rescue path"
        )

    def _build_schwarz(self) -> np.ndarray:
        return schwarz_matrix(self.basis, self.pair_cache)

    def attach_store(self, store: str | Path | ERIStore) -> ERIStore:
        """Attach a memory-mapped integral store to the Fock-build path.

        Accepts a directory path (an :class:`ERIStore` is created and
        opened there) or an already-constructed store.  An existing
        on-disk store is reused only if its manifest fingerprint matches
        this engine's basis; otherwise it is invalidated (with a
        warning) and refilled from the next Fock build.
        """
        if not isinstance(store, ERIStore):
            store = ERIStore(store, self.basis)
        # a store-backed run contracts scipy.sparse matrices: pay the
        # import here, not inside its first served Fock build (and a
        # direct run never pays it)
        import scipy.sparse  # noqa: F401

        self.integral_store = store.open_or_fill()
        return self.integral_store

    def detach_store(self) -> None:
        self.integral_store = None

    def class_plan(self, tau: float) -> ClassPlan:
        """The class-batched execution plan for threshold ``tau``, memoized.

        Plans depend only on the basis and the Schwarz-screened quartet
        set, so one plan serves every SCF iteration at a given ``tau``;
        the engine keeps that one, and another ``tau`` re-plans and
        replaces it.  Planning time lands in the ``class_plan`` profiler
        phase.  ``tau`` must be finite and >= 0: a NaN one would screen
        out every quartet.
        """
        if not (math.isfinite(tau) and tau >= 0):
            raise ValueError(f"tau must be a finite threshold >= 0, got {tau!r}")
        if self._class_plan is not None and self._class_plan[0] == tau:
            return self._class_plan[1]
        from repro.obs.profile import PHASE_CLASS_PLAN

        with phase(PHASE_CLASS_PLAN):
            plan = build_class_plan(
                self.basis,
                self.pair_cache,
                canonical_quartet_array(self.schwarz(), tau),
            )
        self._class_plan = (tau, plan)
        return plan

    def count_rescues(self, n: int) -> None:
        """Tally ``n`` rescued blocks (by the thread that owns the build:
        threaded J/K workers report theirs through the chunk counts)."""
        if n:
            self.eri_rescues += n
            get_metrics().counter(
                "repro_scf_guard_eri_rescues_total",
                "non-finite class-kernel ERI blocks recomputed on the "
                "reference kernel",
            ).inc(n)

    def schwarz(self) -> np.ndarray:
        """Shell-pair screening values sigma(M,N), cached."""
        if self._schwarz is None:
            from repro.obs.profile import PHASE_SCHWARZ

            with phase(PHASE_SCHWARZ):
                self._schwarz = self._build_schwarz()
        return self._schwarz


class MDEngine(ERIEngine):
    """Real ERIs via McMurchie-Davidson (production engine).

    Plan rows go through the class-batched kernel fed by the engine's
    :class:`~repro.integrals.pairdata.ShellPairData`; a flagged row is
    rescued on the batched Obara-Saika kernel, which shares no Boys or
    Hermite code with it.
    """

    class_kernel = True

    def compute_rows(self, chunk: list[Chunk]) -> list[np.ndarray]:
        """One family sweep per group of the chunk's members (a chunk of
        the plan has one group; a store's CRC re-read may mix them)."""
        out = {}
        for group in dict.fromkeys(batch.group for batch, _ in chunk):
            mine = [i for i, (batch, _) in enumerate(chunk) if batch.group is group]
            out.update(zip(mine, class_batch.compute_class_rows([chunk[i] for i in mine])))
        return [out[i] for i in range(len(chunk))]

    def rescue_rows(self, batch: ClassBatch, rows: np.ndarray) -> np.ndarray:
        """Graceful degradation at row granularity: the rows recomputed
        on Obara-Saika (the two agree to ~3e-15 per element, so a rescued
        build stays inside the 1e-12 chaos gate)."""
        blocks = os_class_rows(self.basis, batch, rows)
        finite = np.isfinite(blocks.reshape(len(blocks), -1)).all(axis=1)
        if not finite.all():
            raise NonFiniteERIError(
                tuple(batch.quartets[rows[np.argmin(finite)]].tolist()),
                "Obara-Saika kernel is non-finite too",
            )
        return blocks


class OSEngine(ERIEngine):
    """Real ERIs via Obara-Saika (validation engine, Table V comparator)."""

    def compute_rows(self, chunk: list[Chunk]) -> list[np.ndarray]:
        return [os_class_rows(self.basis, batch, rows) for batch, rows in chunk]
