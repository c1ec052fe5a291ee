"""Task definitions for both Fock-build decompositions, as class-plan rows.

* **GTFock tasks** (Sec III-B): one task per shell pair ``(M,:|N,:)``,
  computing the parity-unique, screened quartets ``(MP|NQ)`` (Algorithm
  3).  :func:`gtfock_task_rows` gives each canonical row of the engine's
  class plan to the task whose image ``(MP|NQ)`` passes
  :func:`~repro.fock.symmetry.task_computes`.
* **NWChem tasks** (Sec II-F, Algorithm 2): chunks of 5 atom quartets
  from a fixed enumeration over unique atom triplets
  (:func:`nwchem_task_list`).  :func:`nwchem_task_rows` gives each row to
  the task of the atom quartet of its lexicographically smallest
  *atom-canonical* image (``I >= J``, ``K >= L``, ``IJ >= KL``).

Owners are computed once per plan, vectorised over the eight images;
the per-task loops they replaced are the test suite's oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.screening_map import ScreeningMap
from repro.fock.symmetry import task_computes
from repro.integrals.class_batch import EIGHT_PERMUTATIONS, ClassPlan


@dataclass
class TaskRows:
    """A class plan's rows grouped by the task owning each.

    Task ``t`` owns plan rows ``rows[bounds[t]:bounds[t + 1]]``, in the
    order the task's loops visit them; ``images`` holds, per entry of
    ``rows``, the permutation image of the row's quartet the task
    computes (GTFock ``(M, P, N, Q)``, NWChem ``(M, N, P, Q)``).
    """

    rows: np.ndarray
    images: np.ndarray
    bounds: np.ndarray

    def of(self, task: int) -> slice:
        return slice(self.bounds[task], self.bounds[task + 1])


#: the score of an image that may not own its row
_NEVER = np.iinfo(np.int64).max


def _owned_images(plan: ClassPlan, score) -> np.ndarray:
    """Per plan row, the first of its eight images ``img`` (``(nrows, 4)``
    int32 arrays) with the lowest ``score(img)`` (int64; :data:`_NEVER`
    where the image may not own the row)."""
    quartets = np.concatenate(
        [b.quartets for b in plan.batches] + [np.empty((0, 4), np.int64)]
    ).astype(np.int32)
    best, low = np.empty_like(quartets), np.full(len(quartets), _NEVER)
    for perm in EIGHT_PERMUTATIONS:
        img = quartets[:, perm]
        rank = score(img)
        hit = rank < low
        best[hit], low[hit] = img[hit], rank[hit]
    return best


def _grouped(images: np.ndarray, keys: tuple, ntasks: int) -> TaskRows:
    """``images`` grouped by task (the last of ``keys``), ordered within
    a task by the others, most significant last (:func:`np.lexsort`)."""
    rows = np.lexsort(keys)
    return TaskRows(
        rows=rows, images=images[rows],
        bounds=np.searchsorted(keys[-1][rows], np.arange(ntasks + 1)),
    )


def task_plan(engine, screen: ScreeningMap) -> ClassPlan:
    """The engine's class plan holding the quartets of ``screen``'s tasks."""
    if not np.array_equal(screen.sigma, engine.schwarz()):
        raise ValueError("the screen must use the engine's Schwarz matrix")
    return engine.class_plan(screen.tau)


def gtfock_task_rows(plan: ClassPlan, nshells: int) -> TaskRows:
    """``plan``'s rows by owning GTFock task ``M * nshells + N``: the task
    whose image ``(MP|NQ)`` passes :func:`task_computes` (exactly one
    distinct image does), rows in the task's ``(P, Q)`` loop order;
    computed once per plan."""
    if "gtfock" not in plan.derived:
        own = _owned_images(plan, lambda img: np.where(task_computes(
            img[:, 0], img[:, 2], img[:, 1], img[:, 3]
        ), 0, _NEVER))
        m, p, n, q = own.T.astype(np.int64)
        plan.derived["gtfock"] = _grouped(
            own, (q, p, m * nshells + n), nshells * nshells
        )
    return plan.derived["gtfock"]


# ---------------------------------------------------------------------------
# NWChem atom-quartet tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NWChemTask:
    """One NWChem task: up to 5 consecutive atom quartets (I,J,K, L-range)."""

    i_at: int
    j_at: int
    k_at: int
    l_lo: int
    l_hi: int  # inclusive, as in Algorithm 2

    def l_range(self) -> range:
        return range(self.l_lo, self.l_hi + 1)


def atom_sigma(screen: ScreeningMap) -> np.ndarray:
    """Atom-pair screening values: max over the atoms' shell pairs."""
    atom_of = screen.basis.atom_of_shell
    order = np.argsort(atom_of, kind="stable")
    starts = np.searchsorted(atom_of[order], np.arange(screen.basis.molecule.natoms))
    blocks = np.maximum.reduceat(np.maximum.reduceat(
        screen.sigma[np.ix_(order, order)], starts, axis=0), starts, axis=1)
    return np.tril(blocks) + np.tril(blocks, -1).T  # the (I >= J) blocks


def nwchem_task_list(
    screen: ScreeningMap, chunk: int = 5
) -> list[NWChemTask]:
    """The global ordered task list of Algorithm 2.

    Tasks enumerate unique triplets (I >= J, K <= I) with significant
    (I, J), chunking the innermost L loop in strides of ``chunk``
    (NWChem's "5 atom quartets per task").  The list order *is* the
    dispatch order of the centralized scheduler.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be a positive atom-quartet count, got {chunk}")
    sig_at = atom_sigma(screen)
    tau_sig = screen.tau / max(float(sig_at.max()), 1e-300)
    natoms = sig_at.shape[0]
    tasks: list[NWChemTask] = []
    for i_at in range(natoms):
        for j_at in range(i_at + 1):
            if sig_at[i_at, j_at] < tau_sig:
                continue
            for k_at in range(i_at + 1):
                l_hi = j_at if k_at == i_at else k_at
                for l_lo in range(0, l_hi + 1, chunk):
                    tasks.append(
                        NWChemTask(
                            i_at, j_at, k_at, l_lo, min(l_lo + chunk - 1, l_hi)
                        )
                    )
    return tasks


def nwchem_task_rows(
    plan: ClassPlan, screen: ScreeningMap, tasks: list[NWChemTask], chunk: int
) -> TaskRows:
    """``plan``'s rows by owning NWChem task (an index into ``tasks``, the
    :func:`nwchem_task_list` of ``screen`` and ``chunk``): the task of
    the atom quartet ``(I, J, K, L)`` of the row's smallest atom-canonical
    image ``(M, N, P, Q)``, rows in the task's ``(L, M, N, P, Q)`` loop
    order; computed once per plan and chunk."""
    key = ("nwchem", chunk)
    if key not in plan.derived:
        atom_of = screen.basis.atom_of_shell
        na, digits = screen.basis.molecule.natoms, screen.nshells ** np.arange(3, -1, -1)

        def score(img):  # lexicographic among the atom-canonical images
            i, j, k, l = atom_of[img].T
            canonical = (i >= j) & (k >= l) & ((i > k) | ((i == k) & (j >= l)))
            return np.where(canonical, img.astype(np.int64) @ digits, _NEVER)

        own = _owned_images(plan, score)
        i, j, k, l = atom_of[own].T
        triples = [(t.i_at * na + t.j_at) * na + t.k_at for t in tasks]
        task = np.searchsorted(triples, (i * na + j) * na + k) + l // chunk
        m, n, p, q = own.T
        plan.derived[key] = _grouped(own, (q, p, n, m, l, task), len(tasks))
    return plan.derived[key]
