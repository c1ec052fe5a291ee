"""Cauchy-Schwarz screening bounds (Sec II-D of the paper).

The bound ``|(ij|kl)| <= sqrt((ij|ij)) sqrt((kl|kl))`` lets the Fock build
skip shell quartets whose estimate falls below a drop tolerance tau.  The
*shell pair value* is

``sigma(M,N) = max_{i in M, j in N} sqrt((ij|ij))``

so that a quartet (MN|PQ) may be skipped when
``sigma(M,N) * sigma(P,Q) < tau``.

Two evaluation paths:

* :func:`schwarz_matrix` -- exact: computes the diagonal quartet
  ``(MN|MN)`` for every shell pair, as one class plan through the
  class-batched kernel.  O(nshells^2) quartets; fine for
  validation-scale molecules.
* :func:`schwarz_model` -- paper-scale model: the exact *diagonal* values
  ``sigma(M,M)`` combined with the Gaussian-product decay
  ``exp(-mu r_MN^2)`` of the most diffuse primitives, which is the factor
  that actually drives the distance screening (the ERI prefactor of the
  bra charge distribution).  Fully vectorized: O(nshells^2) array work.
"""

from __future__ import annotations


import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import build_class_plan, compute_class_rows
from repro.integrals.pairdata import ShellPairData


def _diagonal_bounds(
    basis: BasisSet, m: np.ndarray, n: np.ndarray, pair_cache: ShellPairData | None
) -> np.ndarray:
    """Exact sigma(M,N) from the diagonal quartets ``(MN|MN)`` of the shell
    pairs ``(m[i], n[i])``, scattered into a zero (nshells, nshells) matrix.

    One class plan swept by the same kernel as the Fock build's quartets;
    ``pair_cache`` supplies (and memoizes) the pair data -- the engine
    passes its own, so Schwarz and every later plan expand each pair once
    (``None``: a throwaway cache).
    """
    if pair_cache is None:
        pair_cache = ShellPairData(basis)
    sigma = np.zeros((basis.nshells, basis.nshells))
    plan = build_class_plan(basis, pair_cache, np.stack([m, n, m, n], axis=1))
    for chunk in plan.chunks():
        for (batch, rows), blocks in zip(chunk, compute_class_rows(chunk)):
            diag = np.abs(np.einsum("qijij->qij", blocks)).reshape(len(blocks), -1)
            sigma[tuple(batch.quartets[rows, :2].T)] = np.sqrt(diag.max(axis=1))
    return sigma


def schwarz_matrix(
    basis: BasisSet, pair_cache: ShellPairData | None = None
) -> np.ndarray:
    """Exact sigma(M,N) for all shell pairs, shape (nshells, nshells)."""
    lower = _diagonal_bounds(basis, *np.tril_indices(basis.nshells), pair_cache)
    return np.maximum(lower, lower.T)


def schwarz_model(basis: BasisSet) -> np.ndarray:
    """Model sigma(M,N): exact diagonals + Gaussian-product distance decay.

    ``sigma(M,N) ~= sqrt(sigma(M,M) sigma(N,N)) * exp(-mu_MN r_MN^2)``
    with ``mu_MN = e_M e_N / (e_M + e_N)`` over the most diffuse primitive
    exponents.  This is exact for the r=0 diagonal and reproduces the
    asymptotic decay of the true bound, which is what determines the
    significant sets Phi(M) the parallel algorithm is built on.
    """
    shells = np.arange(basis.nshells)
    diag = np.diag(_diagonal_bounds(basis, shells, shells, None))
    e = basis.min_exponents()
    centers = basis.centers
    mu = e[:, None] * e[None, :] / (e[:, None] + e[None, :])
    diff = centers[:, None, :] - centers[None, :, :]
    r2 = np.einsum("mnd,mnd->mn", diff, diff)
    sigma = np.sqrt(diag[:, None] * diag[None, :]) * np.exp(-mu * r2)
    return sigma


def unique_significant_quartet_count(sigma: np.ndarray, tau: float) -> int:
    """Number of unique shell quartets surviving screening (Table II column).

    Counts canonical quartets (M>=N, P>=Q... sorted pair ordering) with
    ``sigma(M,N) sigma(P,Q) >= tau``, exploiting the 8-fold symmetry the
    way the paper counts "Unique Shell Quartets".  Vectorized via sorting:
    for each canonical bra pair value v, counts canonical ket pairs with
    value >= tau / v that do not precede the bra pair.
    """
    ns = sigma.shape[0]
    iu, ju = np.triu_indices(ns)
    vals = sigma[iu, ju]
    keep = vals > 1e-300  # avoid overflow in tau / value for denormals
    vals = vals[keep]
    npair = vals.size
    if npair == 0:
        return 0
    # pair ids in canonical order 0..npair-1 (bra <= ket avoids double count)
    order = np.argsort(vals)
    sorted_vals = vals[order]
    rank_of = np.empty(npair, dtype=np.int64)
    rank_of[order] = np.arange(npair)
    # count, for each bra pair b (by original id), ket pairs k >= b with
    # vals[k] >= tau / vals[b].  Equivalent: over sorted values, pairs
    # (b, k) with product >= tau, b <= k by *pair id*; we instead count by
    # value ordering and correct: count unordered {b,k} with product >= tau
    # (including b == k), which is identical to counting with any fixed
    # total order on pairs.
    thresholds = tau / sorted_vals
    idx = np.searchsorted(sorted_vals, thresholds, side="left")
    counts = npair - idx  # pairs k (all) with product >= tau, per b
    total_ordered = int(counts.sum())
    diag = int(np.count_nonzero(sorted_vals * sorted_vals >= tau))
    # unordered pairs including b == k
    return (total_ordered - diag) // 2 + diag
