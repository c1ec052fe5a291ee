"""The task cost matrix's row loop that ``repro.fock.cost`` replaced: per
bra row M, every ket threshold binary-searched among M's sorted values.
``quartet_cost_matrix`` must equal it bitwise (tests/test_cost_property.py)."""

from __future__ import annotations

import numpy as np

from repro.fock.cost import TaskCosts, parity_allowed
from repro.fock.symmetry import symmetry_check


def row_loop_cost_matrix(screen) -> TaskCosts:
    """Cost matrices for every task under parity uniqueness + screening,
    diagonal tasks halved (as ``quartet_cost_matrix``)."""
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
