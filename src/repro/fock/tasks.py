"""GTFock's task decomposition (Sec III-B), as class-plan rows.

One task per shell pair ``(M,:|N,:)`` computes the parity-unique,
screened quartets ``(MP|NQ)`` (Algorithm 3).  :func:`gtfock_task_rows`
gives each canonical row of the engine's class plan to the task whose
image ``(MP|NQ)`` passes :func:`~repro.fock.symmetry.task_computes`.

Owners are computed once per plan, vectorised over the eight images;
the per-task loops they replaced are the test suite's oracles, and the
NWChem atom-quartet owners (Algorithm 2) are ``tests/reference_nwchem.py``.
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
    computes (GTFock ``(M, P, N, Q)``).
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
