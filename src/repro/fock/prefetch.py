"""Prefetch footprints: which D/F blocks a task block touches (Sec III-D).

A task ``(M,:|N,:)`` reads/updates the shell-pair index sets
``(M, Phi(M)), (N, Phi(N)), (Phi(M), Phi(N))``.  For a whole task block
the union footprint is::

    rows:   { (M, P) : M in R, P in Phi(M) }
    cols:   { (N, Q) : N in C, Q in Phi(N) }
    cross:  PhiUnion(R) x PhiUnion(C)

Shell reordering makes consecutive Phi sets overlap, so the cross term is
far smaller than (ntasks x per-task footprint) -- the effect Figure 1 of
the paper visualizes (a 50x50 task block needs ~80x one task's data, not
2500x).

Everything here is exact set arithmetic on the significance matrix,
vectorized with boolean masks; volumes are in matrix *elements* (multiply
by 8 for bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.partition import StaticPartition, TaskBlock
from repro.fock.screening_map import ScreeningMap


@dataclass
class Footprint:
    """The D (or F) footprint of a task block, as shell-pair structure.

    ``row_pairs``/``col_pairs`` are boolean (nshells, nshells) masks of
    touched directed shell pairs; ``elements`` is the number of matrix
    elements in the union of all touched blocks.
    """

    #: touched (M, P) pairs: rows of the block x their Phi sets
    row_pairs: np.ndarray
    #: touched (N, Q) pairs
    col_pairs: np.ndarray
    #: Phi-union masks for the cross term
    phi_rows: np.ndarray
    phi_cols: np.ndarray
    #: distinct matrix elements in the union footprint
    elements: int
    #: elements counted per-region without cross-region dedup (v1+v2 view)
    elements_rows: int
    elements_cols: int
    elements_cross: int

    @property
    def bytes(self) -> int:
        return self.elements * 8


def block_footprint(screen: ScreeningMap, block: TaskBlock) -> Footprint:
    """Exact union D-footprint of a task block."""
    sig = screen.significant
    sizes = screen.basis.shell_sizes().astype(np.int64)
    rows = block.rows()
    cols = block.cols()

    row_pairs = np.zeros_like(sig)
    row_pairs[rows] = sig[rows]
    col_pairs = np.zeros_like(sig)
    col_pairs[cols] = sig[cols]
    phi_rows = screen.phi_union(rows)
    phi_cols = screen.phi_union(cols)

    cross = np.outer(phi_rows, phi_cols)
    union = row_pairs | col_pairs | cross
    # elements of a pair mask = sum_ij sizes_i sizes_j mask_ij, as two
    # matrix-vector products instead of an (nshells, nshells) weight table
    return Footprint(
        row_pairs=row_pairs,
        col_pairs=col_pairs,
        phi_rows=phi_rows,
        phi_cols=phi_cols,
        elements=int(sizes @ (union @ sizes)),
        elements_rows=int(sizes[rows] @ (sig[rows] @ sizes)),
        elements_cols=int(sizes[cols] @ (sig[cols] @ sizes)),
        elements_cross=int(sizes[phi_rows].sum()) * int(sizes[phi_cols].sum()),
    )


def task_footprint_elements(screen: ScreeningMap, m: int, n: int) -> int:
    """D-footprint (elements) of a single task (M,:|N,:) -- Figure 1(a)."""
    return block_footprint(screen, TaskBlock(m, m + 1, n, n + 1)).elements


def footprint_element_mask(fp: Footprint, basis) -> np.ndarray:
    """Symmetrized element-level (nbf, nbf) mask of a footprint.

    Expands the shell-pair union (rows | cols | cross) to basis-function
    granularity and symmetrizes it, matching how the numeric build's F
    contributions land on both (i, j) and (j, i).  Used to attribute a
    thief's F flush to its own static footprint vs stolen work.
    """
    sizes = basis.shell_sizes().astype(np.int64)
    union = fp.row_pairs | fp.col_pairs | np.outer(fp.phi_rows, fp.phi_cols)
    m = np.repeat(np.repeat(union, sizes, axis=0), sizes, axis=1)
    return m | m.T


def footprint_bounding_boxes(fp: Footprint) -> list[tuple[int, int, int, int]]:
    """Bounding rectangles (shell index space) of the three fetch regions.

    Used to estimate GA call counts: with reordering, each region is
    nearly contiguous, so GTFock issues one strided GA access per region
    per owner process it overlaps.
    """
    boxes = []
    for mask2d in (fp.row_pairs, fp.col_pairs):
        rows = np.flatnonzero(mask2d.any(axis=1))
        cols = np.flatnonzero(mask2d.any(axis=0))
        if rows.size:
            boxes.append(
                (int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1)
            )
    pr = np.flatnonzero(fp.phi_rows)
    pc = np.flatnonzero(fp.phi_cols)
    if pr.size and pc.size:
        boxes.append((int(pr.min()), int(pr.max()) + 1, int(pc.min()), int(pc.max()) + 1))
    return boxes


def ga_calls_for_footprint(
    fp: Footprint, row_bounds: np.ndarray, col_bounds: np.ndarray
) -> int:
    """Number of one-sided GA calls to fetch a footprint.

    One call per (fetch-region bounding box, owner process) intersection,
    mirroring strided GA gets against a 2-D blocked array with
    shell-block boundaries ``row_bounds``/``col_bounds`` (shell indices).
    """
    calls = 0
    for r0, r1, c0, c1 in footprint_bounding_boxes(fp):
        gi0 = int(np.searchsorted(row_bounds, r0, side="right")) - 1
        gi1 = int(np.searchsorted(row_bounds, r1 - 1, side="right")) - 1
        gj0 = int(np.searchsorted(col_bounds, c0, side="right")) - 1
        gj1 = int(np.searchsorted(col_bounds, c1 - 1, side="right")) - 1
        calls += (gi1 - gi0 + 1) * (gj1 - gj0 + 1)
    return calls


def _block_span(bounds: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """How many blocks of ``bounds`` each index range ``[lo, hi)`` overlaps."""
    first = np.searchsorted(bounds, lo, side="right")
    return np.searchsorted(bounds, hi - 1, side="right") - first + 1


def rank_footprints(
    screen: ScreeningMap, part: StaticPartition
) -> tuple[np.ndarray, np.ndarray]:
    """``(elements, prefetch_calls)`` of every rank's task block at once.

    Equal, rank by rank, to ``block_footprint(screen,
    part.task_block(p)).elements`` and :func:`ga_calls_for_footprint`
    of that footprint, but a function of the rank's block indices: no
    per-rank ``(nshells, nshells)`` mask is built, only per-row-block
    and per-column-block summaries of shape ``(prow | pcol, nshells)``.

    With ``s`` the shell sizes, ``S`` the significance matrix,
    ``r = s * (S s)`` the weight of each shell's row of pairs and
    ``U_R`` / ``U_C`` the Phi-unions of a row block R / column block C,
    inclusion-exclusion over rows | cols | cross gives::

        |union| = sum_R r + sum_C r + (s.U_R)(s.U_C)
                  - sum_{M in R} s_M (S (s * U_C))_M     # rows & cross
                  - sum_{N in C} U_R[N] r_N              # cols & cross

    The rows & cols term and the triple term are the same set (``M in
    Phi(M)`` puts every pair of a shared shell inside the cross block)
    and cancel.  The three fetch regions' bounding boxes are
    ``R x extent(U_R)``, ``C x extent(U_C)`` and ``extent(U_R) x
    extent(U_C)`` for the same reason: every row of a block has its
    diagonal pair.
    """
    sig = screen.significant
    s = screen.basis.shell_sizes().astype(np.int64)
    rb, cb = part.row_shell_bounds, part.col_shell_bounds
    u_r = np.logical_or.reduceat(sig, rb[:-1], axis=0)  # (prow, nshells)
    u_c = np.logical_or.reduceat(sig, cb[:-1], axis=0)  # (pcol, nshells)
    r = s * (sig @ s)
    rows_cross = np.add.reduceat(
        s[:, None] * (sig @ (u_c * s).T), rb[:-1], axis=0
    )
    cols_cross = np.add.reduceat(u_r * r, cb[:-1], axis=1)
    elements = (
        np.add.reduceat(r, rb[:-1])[:, None]
        + np.add.reduceat(r, cb[:-1])[None, :]
        + np.outer(u_r @ s, u_c @ s)
        - rows_cross
        - cols_cross
    )

    def extent(union: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = union.shape[1]
        return union.argmax(axis=1), n - union[:, ::-1].argmax(axis=1)

    r_lo, r_hi = extent(u_r)
    c_lo, c_hi = extent(u_c)
    # one GA call per (bounding box, owner block) intersection
    calls = (
        (_block_span(rb, rb[:-1], rb[1:]) * _block_span(cb, r_lo, r_hi))[:, None]
        + (_block_span(rb, cb[:-1], cb[1:]) * _block_span(cb, c_lo, c_hi))[None, :]
        + np.outer(_block_span(rb, r_lo, r_hi), _block_span(cb, c_lo, c_hi))
    )
    return elements.ravel(), calls.ravel().astype(np.int64)
