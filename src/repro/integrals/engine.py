"""ERI engine abstraction consumed by all Fock builders.

An engine supplies two things:

* ERI blocks for the rows of its class plans -- the class-batched MD
  kernel over the engine's ``pair_cache``, or, for an engine without
  it, one ``_quartet(M, N, P, Q)`` block per row;
* ``schwarz()`` -- the shell-pair screening matrix sigma.

Engines provided:

* :class:`MDEngine` / :class:`OSEngine` -- real integrals
  (McMurchie-Davidson / Obara-Saika).
* :class:`SyntheticERIEngine` -- deterministic separable fake integrals
  with the full 8-fold permutational symmetry and distance-based decay.
  They admit *closed-form* J/K contractions, so distributed Fock builds
  on medium-size systems can be validated exactly without O(n^4) work.

Fock builds go through :meth:`ERIEngine.class_plan` and
:func:`repro.integrals.class_batch.jk_from_plan`, where an attached
:class:`~repro.integrals.store.ERIStore` is the one reuse layer (ERIs are
density-independent, so a ready store is read once into the engine's
:class:`~repro.integrals.class_batch.Supermatrix` and every later build
contracts that).  ``quartets_computed`` counts only *real* computations
(Table VII call-count benchmarks stay exact); store service is tallied
separately in ``quartets_served_from_store``.
"""

from __future__ import annotations

import abc
import math
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import (
    ClassPlan,
    Supermatrix,
    build_class_plan,
    canonical_quartet_array,
)
from repro.integrals.eri_md import eri_shell_quartet
from repro.integrals.eri_os import eri_shell_quartet_os
from repro.integrals.pairdata import ShellPairData
from repro.integrals.schwarz import schwarz_matrix
from repro.integrals.store import ERIStore
from repro.obs import get_metrics, get_profiler


class NonFiniteERIError(RuntimeError):
    """An ERI block came back NaN/Inf and no rescue path could fix it."""

    def __init__(self, quartet: tuple[int, int, int, int], detail: str = ""):
        self.quartet = quartet
        msg = f"ERI quartet {quartet} is non-finite"
        super().__init__(msg + (f": {detail}" if detail else ""))


class ERIEngine(abc.ABC):
    """Interface between integral generation and Fock construction."""

    def __init__(
        self,
        basis: BasisSet,
        store: str | Path | ERIStore | None = None,
    ):
        self.basis = basis
        self._schwarz: np.ndarray | None = None
        #: per-basis pair data of the class kernel (None: the engine has
        #: no such kernel and its class plans resolve rows via _quartet)
        self.pair_cache: ShellPairData | None = None
        #: number of quartet blocks actually computed (used by
        #: benchmarks/tests; store service is counted separately)
        self.quartets_computed = 0
        #: number of quartet blocks read back from the integral store
        self.quartets_served_from_store = 0
        #: opt-in memory-mapped stored-integral layer (conventional SCF)
        self.integral_store: ERIStore | None = None
        #: the ready store's integrals as sparse matrices, assembled by
        #: the first build it serves (``jk_from_plan``); at most one,
        #: dropped with the store
        self.supermatrix: Supermatrix | None = None
        #: NaN/Inf sentinel on computed blocks (armed by the SCF guard,
        #: at the start of a run or by its ``reference_eri`` rung); off
        #: by default so the hot path carries zero extra cost
        self.finite_check = False
        #: blocks rescued by the per-quartet reference-kernel fallback
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

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """One ERI block (MN|PQ): how an engine without the class kernel
        (no ``pair_cache``) resolves a plan row."""
        raise NotImplementedError

    @abc.abstractmethod
    def _build_schwarz(self) -> np.ndarray: ...

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

        self.supermatrix = None
        self.integral_store = store.open_or_fill()
        return self.integral_store

    def detach_store(self) -> None:
        self.integral_store = None
        self.supermatrix = None

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

        with get_profiler().phase(PHASE_CLASS_PLAN):
            plan = build_class_plan(
                self.basis,
                self.pair_cache,
                canonical_quartet_array(self.schwarz(), tau),
            )
        self._class_plan = (tau, plan)
        return plan

    def _rescue_quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """Last resort for a non-finite block; engines without an
        independent slow path have nothing to degrade to."""
        raise NonFiniteERIError((m, n, p, q), "engine has no rescue path")

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

            with get_profiler().phase(PHASE_SCHWARZ):
                self._schwarz = self._build_schwarz()
        return self._schwarz


class MDEngine(ERIEngine):
    """Real ERIs via McMurchie-Davidson (production engine).

    Plan rows go through the class-batched kernel fed by a per-basis
    :class:`~repro.integrals.pairdata.ShellPairData` cache; the
    per-primitive reference kernel (:mod:`repro.integrals.eri_md`) is
    the independent slow path a flagged block is rescued on.
    """

    def __init__(
        self, basis: BasisSet, store: str | Path | ERIStore | None = None
    ):
        super().__init__(basis, store=store)
        self.pair_cache = ShellPairData(basis)

    def _rescue_quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """Graceful degradation at quartet granularity.

        A non-finite batched block is recomputed on the independent
        per-primitive reference kernel (the two agree to ~3e-15 per
        element, so a rescued build stays inside the 1e-12 chaos gate).
        """
        sh = self.basis.shells
        block = eri_shell_quartet(sh[m], sh[n], sh[p], sh[q])
        if not np.isfinite(block).all():
            raise NonFiniteERIError(
                (m, n, p, q), "reference kernel is non-finite too"
            )
        return block

    def _build_schwarz(self) -> np.ndarray:
        return schwarz_matrix(self.basis, self.pair_cache)


class OSEngine(ERIEngine):
    """Real ERIs via Obara-Saika (validation engine, Table V comparator)."""

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        sh = self.basis.shells
        return eri_shell_quartet_os(sh[m], sh[n], sh[p], sh[q])

    def _build_schwarz(self) -> np.ndarray:
        return schwarz_matrix(self.basis)


class SyntheticERIEngine(ERIEngine):
    """Deterministic symmetric fake ERIs with closed-form contractions.

    ``(ij|kl) = u_i u_j u_k u_l + v_ij v_kl`` with
    ``v_ij = w_i w_j exp(-gamma d_ij^2)`` (d = distance between the owning
    shells' centers).  This satisfies all permutational symmetries of
    Eq (4) exactly and decays with distance like real integrals, so
    Cauchy-Schwarz screening behaves realistically.

    Closed forms used by :meth:`coulomb_exact` / :meth:`exchange_exact`::

        J = (u^T D u) u u^T + (sum_kl D_kl v_kl) V
        K = (u^T D u) u u^T + V D V
    """

    def __init__(self, basis: BasisSet, gamma: float = 0.08, seed: int = 7):
        super().__init__(basis)
        rng = np.random.default_rng(seed)
        n = basis.nbf
        self.u = rng.uniform(0.05, 0.25, n)
        w = rng.uniform(0.3, 1.0, n)
        # function -> shell center map
        centers = np.empty((n, 3))
        for s in range(basis.nshells):
            centers[basis.shell_slice(s)] = basis.shells[s].center
        diff = centers[:, None, :] - centers[None, :, :]
        d2 = np.einsum("ijd,ijd->ij", diff, diff)
        self.v = w[:, None] * w[None, :] * np.exp(-gamma * d2)

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        b = self.basis
        sm, sn, sp, sq = (b.shell_slice(s) for s in (m, n, p, q))
        u = self.u
        out = (
            u[sm, None, None, None]
            * u[None, sn, None, None]
            * u[None, None, sp, None]
            * u[None, None, None, sq]
        )
        out = out + self.v[sm, sn][:, :, None, None] * self.v[sp, sq][None, None, :, :]
        return out

    def _build_schwarz(self) -> np.ndarray:
        # sigma(M,N) = max_{ij in MN} sqrt((ij|ij)); (ij|ij) = u_i^2 u_j^2 + v_ij^2
        b = self.basis
        fn = np.sqrt(self.u[:, None] ** 2 * self.u[None, :] ** 2 + self.v**2)
        ns = b.nshells
        sigma = np.empty((ns, ns))
        offsets = b.offsets
        for m in range(ns):
            rows = fn[offsets[m] : offsets[m + 1]]
            # reduce function rows to shell blocks along columns
            col_max = np.maximum.reduceat(rows.max(axis=0), offsets[:-1])
            sigma[m] = col_max
        return sigma

    # -- exact closed-form contractions (for validation) --------------------

    def coulomb_exact(self, density: np.ndarray) -> np.ndarray:
        """J_ij = sum_kl D_kl (kl|ij), computed in O(n^2)."""
        s1 = float(self.u @ density @ self.u)
        s2 = float(np.sum(density * self.v))
        return s1 * np.outer(self.u, self.u) + s2 * self.v

    def exchange_exact(self, density: np.ndarray) -> np.ndarray:
        """K_ij = sum_kl D_kl (ki|lj), computed in O(n^2) + one matmul."""
        s1 = float(self.u @ density @ self.u)
        return s1 * np.outer(self.u, self.u) + self.v @ density @ self.v

    def fock_exact(self, hcore: np.ndarray, density: np.ndarray) -> np.ndarray:
        """F = Hcore + 2J - K with *no screening* (tau = 0 reference)."""
        return hcore + 2.0 * self.coulomb_exact(density) - self.exchange_exact(density)
