"""Test engines that build blocks one quartet at a time, and one-row plans.

* :class:`ReferenceMDEngine` -- a differential oracle for the class
  kernel: every block comes from the per-primitive MD kernel
  :func:`reference_eri.eri_shell_quartet`;
* :class:`SyntheticERIEngine` -- deterministic separable fake integrals
  with closed-form J/K, for validating distributed builds on medium-size
  systems without O(n^4) work.

Both implement the engine seam ``compute_rows`` by stacking one
``_quartet(M, N, P, Q)`` block per row (tests wrap ``_quartet`` in a
cache to replay an oracle pass).  :func:`quartet_block` is how tests ask
any engine for one block: a one-row class plan through the production
chunk resolver (:func:`quartet_blocks` for many at once);
:func:`class_rows` sweeps rows of one class on the MD class kernel.
Production code must not import this module.
"""

from __future__ import annotations

import numpy as np

from reference_eri import eri_shell_quartet
from repro.chem.basis.basisset import BasisSet
from repro.integrals import class_batch
from repro.integrals.engine import ERIEngine


def quartet_blocks(engine, quartets) -> dict:
    """The ERI blocks of ``quartets`` (shell 4-tuples, any index order)
    keyed by tuple: one class plan resolved chunk by chunk by the
    engine's own kernel -- computed, counted in ``quartets_computed``,
    rescued when the NaN/Inf sentinel is armed."""
    plan = class_batch.build_class_plan(engine.basis, engine.pair_cache, quartets)
    out = {}
    for chunk in plan.chunks():
        parts, counts = class_batch._resolve_chunk(engine, chunk, None)
        class_batch._tally(engine, counts, None)
        for (batch, rows), blocks in zip(chunk, parts):
            out.update(zip(map(tuple, batch.quartets[rows].tolist()), blocks))
    return out


def quartet_block(engine, m: int, n: int, p: int, q: int) -> np.ndarray:
    """The block (MN|PQ) through a one-row plan."""
    return quartet_blocks(engine, [(m, n, p, q)])[(m, n, p, q)]


def class_rows(batch, rows) -> np.ndarray:
    """The class kernel's blocks for ``rows`` (a slice or an index array)
    of one class: a family sweep over those rows' family quartets."""
    return class_batch.compute_class_rows([(batch, rows)])[0]


class PerQuartetEngine(ERIEngine):
    """An engine whose rows are stacked ``_quartet`` blocks."""

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        raise NotImplementedError

    def compute_rows(self, chunk) -> list[np.ndarray]:
        return [
            np.stack([self._quartet(*q) for q in batch.quartets[rows].tolist()])
            for batch, rows in chunk
        ]


class ReferenceMDEngine(PerQuartetEngine):
    """Real ERIs, one per-primitive Python-loop quartet at a time."""

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        sh = self.basis.shells
        return eri_shell_quartet(sh[m], sh[n], sh[p], sh[q])


class SyntheticERIEngine(PerQuartetEngine):
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
