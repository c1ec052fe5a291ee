"""Per-task work estimation: the task cost matrix (Sec III-B/III-G).

``quartet_cost_matrix`` counts, for every shell-pair task ``(M, N)``, the
parity-unique, screened shell quartets it computes and the ERIs they
hold (what ``t_int`` multiplies): the work the timing-level simulation
charges per task.  For a task row M the surviving (P, Q) count factorizes
as ``#{(P,Q) : sigma(M,P) * sigma(N,Q) > tau}`` with P restricted to M's
parity-allowed set and Q to N's, so sorting M's values once and
binary-searching row N's thresholds gives O(nshells^2 * B) NumPy work
instead of the O(n^2 B^2) quartet loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.screening_map import ScreeningMap
from repro.fock.symmetry import symmetry_check


@dataclass
class TaskCosts:
    """Cost matrices over the task grid."""

    #: surviving shell quartets per task, shape (nshells, nshells)
    quartets: np.ndarray
    #: ERIs per task (quartets weighted by their function counts)
    eris: np.ndarray

    @property
    def total_eris(self) -> float:
        return float(self.eris.sum())


def parity_allowed(m: int, nshells: int) -> np.ndarray:
    """Boolean mask over P of SymmetryCheck(m, P) (see fock.symmetry)."""
    return symmetry_check(m, np.arange(nshells))


def quartet_cost_matrix(screen: ScreeningMap) -> TaskCosts:
    """Cost matrices for every task under parity uniqueness + screening.

    Diagonal tasks (M == N) carry the extra ``P <= Q`` tie-break; they are
    approximated as half the unrestricted count.  There are only nshells
    of them among nshells^2 tasks, so the approximation is irrelevant for
    timing.
    """
    ns = screen.nshells
    sigma = screen.sigma
    tau = screen.tau
    sizes = screen.basis.shell_sizes().astype(float)
    sig = screen.significant

    # Per row M: significant, parity-allowed partners and their values.
    vals: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for m in range(ns):
        mask = parity_allowed(m, ns) & sig[m] & (sigma[m] > 1e-300)
        order = np.argsort(sigma[m, mask])[::-1]
        vals.append(sigma[m, mask][order])
        weights.append(sizes[m] * sizes[mask][order])

    # Flat concatenation of every row's (value, weight) lists for the
    # ket side, with segment boundaries for per-row reduction.
    seg_len = np.array([v.size for v in vals], dtype=np.int64)
    seg_start = np.concatenate([[0], np.cumsum(seg_len)])
    flat_vals = np.concatenate(vals) if ns else np.empty(0)
    flat_w = np.concatenate(weights) if ns else np.empty(0)
    # reduceat only over non-empty segments (empty rows contribute zero)
    nonempty_rows = np.flatnonzero(seg_len > 0)
    nonempty_starts = seg_start[:-1][nonempty_rows]

    quartets = np.zeros((ns, ns))
    eris = np.zeros((ns, ns))
    with np.errstate(divide="ignore"):
        flat_thresh = tau / flat_vals  # threshold on the bra value
    for m in range(ns):
        v = vals[m]
        if v.size == 0:
            continue
        w = weights[m]
        prefix_cnt = np.arange(1, v.size + 1, dtype=float)
        prefix_w = np.cumsum(w)
        # v is sorted descending: count of v > t  ==  searchsorted(-v, -t, 'left')
        k = np.searchsorted(-v, -flat_thresh, side="left")
        cnt_contrib = np.where(k > 0, prefix_cnt[np.maximum(k - 1, 0)], 0.0)
        w_contrib = np.where(k > 0, prefix_w[np.maximum(k - 1, 0)], 0.0)
        if flat_vals.size and nonempty_rows.size:
            quartets[m, nonempty_rows] = np.add.reduceat(
                cnt_contrib, nonempty_starts
            )
            eris[m, nonempty_rows] = np.add.reduceat(
                w_contrib * flat_w, nonempty_starts
            )

    # task-level gate: tasks failing SymmetryCheck(M, N) compute nothing
    gate = symmetry_check(np.arange(ns)[:, None], np.arange(ns))
    quartets *= gate
    eris *= gate

    # diagonal tasks: the P <= Q tie-break keeps roughly half the quartets
    quartets[np.diag_indices(ns)] *= 0.5
    eris[np.diag_indices(ns)] *= 0.5

    return TaskCosts(quartets=quartets, eris=eris)
