"""ERI engine abstraction consumed by all Fock builders.

An engine supplies two things:

* ``quartet(M, N, P, Q)`` -- the ERI block for four shell indices;
* ``schwarz()`` -- the shell-pair screening matrix sigma.

Engines provided:

* :class:`MDEngine` / :class:`OSEngine` -- real integrals
  (McMurchie-Davidson / Obara-Saika).
* :class:`SyntheticERIEngine` -- deterministic separable fake integrals
  with the full 8-fold permutational symmetry and distance-based decay.
  They admit *closed-form* J/K contractions, so distributed Fock builds
  on medium-size systems can be validated exactly without O(n^4) work.

Every engine can additionally carry a bounded LRU cache of *canonical*
quartet blocks (:class:`QuartetCache`): ERIs are density-independent, so
direct-SCF iterations after the first can be served transposed views of
already-computed blocks instead of recomputing them.  The cache sits in
the shared :meth:`ERIEngine.quartet` dispatch, so every engine passes
through it unchanged; ``quartets_computed`` keeps counting only *real*
computations (Table VII call-count benchmarks stay exact) while cache
service is tallied separately in ``quartets_served_from_cache``.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import (
    EIGHT_PERMUTATIONS as _EIGHT_PERMUTATIONS,
)
from repro.integrals.class_batch import (
    ClassPlan,
    build_class_plan,
    canonical_quartet_array,
)
from repro.integrals.eri_md import eri_shell_quartet
from repro.integrals.eri_os import eri_shell_quartet_os
from repro.integrals.pairdata import ShellPairData, eri_shell_quartet_batched
from repro.integrals.schwarz import schwarz_matrix, schwarz_model
from repro.integrals.store import ERIStore
from repro.obs import get_metrics

_IDENTITY = (0, 1, 2, 3)

#: bound on memoized class plans per engine (IncrementalFockBuilder
#: cycles through a handful of effective thresholds per SCF run)
_MAX_CLASS_PLANS = 8


class NonFiniteERIError(RuntimeError):
    """An ERI block came back NaN/Inf and no rescue path could fix it."""

    def __init__(self, quartet: tuple[int, int, int, int], detail: str = ""):
        self.quartet = quartet
        msg = f"ERI quartet {quartet} is non-finite"
        super().__init__(msg + (f": {detail}" if detail else ""))


def canonical_quartet(
    m: int, n: int, p: int, q: int
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """The 8-fold-canonical form of a quartet and the restoring transpose.

    Returns ``(key, perm)`` with ``key`` the canonical (bra-sorted,
    ket-sorted, bra >= ket) index tuple and ``perm`` the axis permutation
    such that ``np.transpose(block(key), perm)`` is the requested
    ``block(m, n, p, q)`` (Eq 4's permutational symmetry).
    """
    bra = (m, n) if m >= n else (n, m)
    ket = (p, q) if p >= q else (q, p)
    key = bra + ket if bra >= ket else ket + bra
    for perm in _EIGHT_PERMUTATIONS:
        if (key[perm[0]], key[perm[1]], key[perm[2]], key[perm[3]]) == (m, n, p, q):
            return key, perm
    raise AssertionError("unreachable: canonical orbit must contain the quartet")


class QuartetCache:
    """Bounded LRU cache of canonical ERI quartet blocks.

    Eviction is by total held bytes (``max_bytes``), least recently used
    first.  Blocks are stored for the canonical index tuple only; all 8
    permutation images are served as transposed *views* of the one stored
    array, so callers must treat returned blocks as read-only (every Fock
    builder in this library does).

    Hit/miss/eviction counts and held bytes are mirrored to the
    process-wide :mod:`repro.obs` metrics registry
    (``repro_eri_cache_{hits,misses,evictions}_total`` and the
    ``repro_eri_cache_bytes`` gauge).
    """

    def __init__(self, max_bytes: int):
        if max_bytes <= 0:
            raise ValueError(f"cache bound must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._blocks: OrderedDict[tuple[int, int, int, int], np.ndarray] = (
            OrderedDict()
        )
        self.bytes_held = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, key: tuple[int, int, int, int]) -> np.ndarray | None:
        """The cached canonical block, or None (counts a hit/miss)."""
        block = self._blocks.get(key)
        if block is None:
            self.misses += 1
            get_metrics().counter(
                "repro_eri_cache_misses_total", "quartet cache misses"
            ).inc()
            return None
        self._blocks.move_to_end(key)
        self.hits += 1
        get_metrics().counter(
            "repro_eri_cache_hits_total", "quartet cache hits"
        ).inc()
        return block

    def put(self, key: tuple[int, int, int, int], block: np.ndarray) -> None:
        """Insert a canonical block, evicting LRU entries past the bound."""
        if block.nbytes > self.max_bytes:
            return  # single block exceeds the whole budget: never cacheable
        self._blocks[key] = block
        self._blocks.move_to_end(key)
        self.bytes_held += block.nbytes
        metrics = get_metrics()
        while self.bytes_held > self.max_bytes:
            _, old = self._blocks.popitem(last=False)
            self.bytes_held -= old.nbytes
            self.evictions += 1
            metrics.counter(
                "repro_eri_cache_evictions_total", "quartet cache evictions"
            ).inc()
        metrics.gauge(
            "repro_eri_cache_bytes", "bytes held by the quartet cache"
        ).set(self.bytes_held)

    def clear(self) -> None:
        self._blocks.clear()
        self.bytes_held = 0

    def stats(self) -> dict:
        """Snapshot for reports/tests."""
        total = self.hits + self.misses
        return {
            "entries": len(self._blocks),
            "bytes_held": self.bytes_held,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }


class ERIEngine(abc.ABC):
    """Interface between integral generation and Fock construction."""

    def __init__(
        self,
        basis: BasisSet,
        cache_mb: float | None = None,
        store: str | Path | ERIStore | None = None,
    ):
        self.basis = basis
        self._schwarz: np.ndarray | None = None
        #: number of quartet blocks actually computed (used by
        #: benchmarks/tests; cache service is counted separately)
        self.quartets_computed = 0
        #: number of quartet() calls answered from the LRU cache
        self.quartets_served_from_cache = 0
        #: number of quartet blocks read back from the integral store
        self.quartets_served_from_store = 0
        self.quartet_cache: QuartetCache | None = None
        #: opt-in memory-mapped stored-integral layer (conventional SCF)
        self.integral_store: ERIStore | None = None
        #: NaN/Inf sentinel on computed blocks (armed by the SCF guard);
        #: off by default so the hot path carries zero extra cost
        self.finite_check = False
        #: blocks rescued by the per-quartet reference-kernel fallback
        self.eri_rescues = 0
        #: store blocks that failed their CRC and were recomputed
        #: (class-batched path; the per-quartet path recomputes via
        #: ``store.get`` returning None, tallied in the store's own
        #: ``crc_mismatches``)
        self.crc_rescues = 0
        #: seeded numerical-corruption hook (the ``scf`` fault family);
        #: see :class:`repro.runtime.faults.SCFFaultState`
        self.scf_faults = None
        #: memoized class-batched execution plans, keyed by tau
        self._class_plans: OrderedDict[float, ClassPlan] = OrderedDict()
        if cache_mb is not None:
            self.enable_quartet_cache(cache_mb)
        if store is not None:
            self.attach_store(store)

    @abc.abstractmethod
    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray: ...

    @abc.abstractmethod
    def _build_schwarz(self) -> np.ndarray: ...

    def enable_quartet_cache(self, max_mb: float = 32.0) -> QuartetCache:
        """Attach a bounded LRU canonical-quartet cache (``max_mb`` MiB)."""
        self.quartet_cache = QuartetCache(int(max_mb * 2**20))
        return self.quartet_cache

    def disable_quartet_cache(self) -> None:
        self.quartet_cache = None

    def attach_store(self, store: str | Path | ERIStore) -> ERIStore:
        """Layer a memory-mapped integral store under the LRU cache.

        Accepts a directory path (an :class:`ERIStore` is created and
        opened there) or an already-constructed store.  An existing
        on-disk store is reused only if its manifest fingerprint matches
        this engine's basis; otherwise it is invalidated (with a
        warning) and refilled from the next Fock build.
        """
        if not isinstance(store, ERIStore):
            store = ERIStore(store, self.basis)
        self.integral_store = store.open_or_fill()
        return self.integral_store

    def detach_store(self) -> None:
        self.integral_store = None

    @property
    def supports_class_batched(self) -> bool:
        """Whether the cross-quartet class-batched J/K path applies."""
        return False

    def class_plan(self, tau: float) -> ClassPlan:
        """The class-batched execution plan for threshold ``tau``, memoized.

        Plans depend only on the basis and the Schwarz-screened quartet
        set, so one plan serves every SCF iteration at a given ``tau``
        (a small LRU absorbs the incremental builder's varying effective
        thresholds).  Planning time lands in the ``class_plan`` profiler
        phase.
        """
        plan = self._class_plans.get(tau)
        if plan is not None:
            self._class_plans.move_to_end(tau)
            return plan
        from repro.obs.profile import PHASE_CLASS_PLAN, get_profiler

        with get_profiler().phase(PHASE_CLASS_PLAN):
            plan = build_class_plan(
                self.basis,
                getattr(self, "pair_cache", None),
                canonical_quartet_array(self.schwarz(), tau),
            )
        self._class_plans[tau] = plan
        while len(self._class_plans) > _MAX_CLASS_PLANS:
            self._class_plans.popitem(last=False)
        return plan

    def quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """ERI block (MN|PQ) for shell indices, basis-function shape.

        With the quartet cache enabled, blocks are computed for the
        canonical index tuple only and every permutation image is served
        as a transposed view -- treat the result as read-only.  An
        attached ready integral store is consulted between the cache and
        the kernel; a filling store records every computed canonical
        block.
        """
        cache = self.quartet_cache
        store = self.integral_store
        if cache is None and store is None:
            self.quartets_computed += 1
            block = self._quartet(m, n, p, q)
            # sum-reduction sentinel: any NaN/Inf element makes the sum
            # non-finite, without materialising a bool array per block
            if self.finite_check and not np.isfinite(block.sum()):
                block = self._rescue_quartet(m, n, p, q)
            return block
        key, perm = canonical_quartet(m, n, p, q)
        block = cache.get(key) if cache is not None else None
        if block is None and store is not None and store.ready:
            block = store.get(key)
            if block is not None:
                self.quartets_served_from_store += 1
                if cache is not None:
                    cache.put(key, block)
        elif block is not None:
            self.quartets_served_from_cache += 1
        if block is None:
            self.quartets_computed += 1
            block = self._quartet(*key)
            if self.finite_check and not np.isfinite(block.sum()):
                block = self._rescue_quartet(*key)
            if store is not None and store.filling:
                store.record(key, block)
            if cache is not None:
                cache.put(key, block)
        if perm == _IDENTITY:
            return block
        return np.transpose(block, perm)

    def _rescue_quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """Last resort for a non-finite block; engines without an
        independent slow path have nothing to degrade to."""
        raise NonFiniteERIError((m, n, p, q), "engine has no rescue path")

    @property
    def supports_reference_path(self) -> bool:
        """Whether :meth:`force_reference_path` can do anything here."""
        return False

    def force_reference_path(self) -> None:
        """Permanently drop to the engine's reference kernel (no-op here)."""

    def schwarz(self) -> np.ndarray:
        """Shell-pair screening values sigma(M,N), cached."""
        if self._schwarz is None:
            from repro.obs.profile import PHASE_SCHWARZ, get_profiler

            with get_profiler().phase(PHASE_SCHWARZ):
                self._schwarz = self._build_schwarz()
        return self._schwarz


class MDEngine(ERIEngine):
    """Real ERIs via McMurchie-Davidson (production engine).

    By default quartets go through the batched primitive kernel fed by a
    per-basis :class:`~repro.integrals.pairdata.ShellPairData` cache;
    ``batched=False`` falls back to the seed per-primitive path (kept as
    the cross-validation reference and for A/B benchmarking).
    """

    def __init__(
        self,
        basis: BasisSet,
        model_schwarz: bool = False,
        batched: bool = True,
        class_batched: bool = True,
        cache_mb: float | None = None,
        store: str | Path | ERIStore | None = None,
    ):
        super().__init__(basis, cache_mb=cache_mb, store=store)
        self.model_schwarz = model_schwarz
        self.batched = batched
        #: opt out of the cross-quartet class-batched J/K path while
        #: keeping the per-quartet batched kernel (A/B benchmarking)
        self.class_batched = class_batched
        self.pair_cache: ShellPairData | None = (
            ShellPairData(basis) if batched else None
        )

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        sh = self.basis.shells
        if self.pair_cache is not None:
            block = eri_shell_quartet_batched(
                sh[m], sh[n], sh[p], sh[q],
                bra=self.pair_cache.get(m, n),
                ket=self.pair_cache.get(p, q),
            )
            if self.scf_faults is not None:
                # the scf fault family models a bug in the *fast* kernel:
                # corruption never touches the reference path below
                block = self.scf_faults.corrupt_quartet(block, (m, n, p, q))
            return block
        return eri_shell_quartet(sh[m], sh[n], sh[p], sh[q])

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
        self.eri_rescues += 1
        get_metrics().counter(
            "repro_scf_guard_eri_rescues_total",
            "non-finite batched ERI blocks recomputed on the reference kernel",
        ).inc()
        return block

    @property
    def supports_reference_path(self) -> bool:
        return True

    @property
    def supports_class_batched(self) -> bool:
        """The cross-quartet path shares the batched MD kernel math, so
        it is available exactly when the batched kernel is (and not
        explicitly opted out)."""
        return (
            self.class_batched and self.batched and self.pair_cache is not None
        )

    def force_reference_path(self) -> None:
        """Permanently fall back to the per-primitive reference kernel.

        The guard's last ladder rung: disables the batched kernel, its
        pair cache, and the class-batched plans, clears the quartet
        cache, and detaches any integral store (cached and stored blocks
        may have come from the distrusted fast path).
        """
        self.batched = False
        self.pair_cache = None
        self._class_plans.clear()
        self.integral_store = None
        if self.quartet_cache is not None:
            self.quartet_cache.clear()

    def _build_schwarz(self) -> np.ndarray:
        build = schwarz_model if self.model_schwarz else schwarz_matrix
        return build(self.basis, self.pair_cache)


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
