"""Per-task work estimation: the task cost matrix (Sec III-B/III-G).

``quartet_cost_matrix`` counts, for every shell-pair task ``(M, N)``, the
parity-unique, screened shell quartets it computes and the ERIs they
hold (what ``t_int`` multiplies): the work the timing-level simulation
charges per task.  For a task row M the surviving (P, Q) count factorizes
as ``#{(P,Q) : sigma(M,P) * sigma(N,Q) > tau}`` with P restricted to M's
parity-allowed set and Q to N's: a ket pair ``(N, Q)`` is one threshold
``tau / sigma(N, Q)`` on the bra value.  The F = O(nshells * B)
thresholds of every ket pair are sorted once; per row M its ~B values
are binary-searched among them, which makes every threshold's bra count
a step function of its sorted position, expanded and summed per ket row
N.  The matrix costs O(F log F + nshells * (B log F + F)) NumPy work
instead of the O(nshells^2 B^2) quartet loop.
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


def parity_allowed(m, nshells: int) -> np.ndarray:
    """Boolean mask over P of SymmetryCheck(m, P) (see fock.symmetry);
    one row per m for a column of m."""
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
    sizes = screen.basis.shell_sizes().astype(float)
    # per row M: its significant, parity-allowed partners P
    allowed = parity_allowed(np.arange(ns)[:, None], ns)
    partners = allowed & screen.significant & (sigma > 1e-300)
    weight = sizes[:, None] * sizes  # functions in the pair (M, P)

    # every ket pair (N, Q) as one threshold on the bra value, sorted once
    seg, _ = np.nonzero(partners)
    with np.errstate(divide="ignore"):
        thresh = screen.tau / sigma[partners]
    order = np.argsort(thresh, kind="stable")
    thresh, seg, ket_w = thresh[order], seg[order], weight[partners][order]
    nf = thresh.size

    quartets = np.zeros((ns, ns))
    eris = np.zeros((ns, ns))
    for m in range(ns):
        v, w = sigma[m, partners[m]], weight[m, partners[m]]
        # a threshold's bra count (and weight) is a step function of its
        # sorted position, one step per bra value: the values above it
        b = np.searchsorted(thresh, v)  # thresholds below each value
        o = np.argsort(b)
        steps = np.diff(b[o], prepend=0, append=nf)
        w_above = np.cumsum(w[o][::-1])[::-1]  # integer-valued: exact sums
        above = np.repeat(np.arange(v.size, -1, -1, dtype=float), steps)
        above_w = np.repeat(np.append(w_above, 0.0), steps)
        quartets[m] = np.bincount(seg, above, minlength=ns)
        eris[m] = np.bincount(seg, above_w * ket_w, minlength=ns)

    # task-level gate: tasks failing SymmetryCheck(M, N) compute nothing
    quartets *= allowed
    eris *= allowed

    # diagonal tasks: the P <= Q tie-break keeps roughly half the quartets
    quartets[np.diag_indices(ns)] *= 0.5
    eris[np.diag_indices(ns)] *= 0.5

    return TaskCosts(quartets=quartets, eris=eris)
