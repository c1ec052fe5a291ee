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
    )


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


def _phi_unions(
    screen: ScreeningMap, part: StaticPartition
) -> tuple[np.ndarray, np.ndarray]:
    """``U_R`` / ``U_C``: the Phi-union of every row / column block,
    shapes ``(prow, nshells)`` / ``(pcol, nshells)``."""
    sig = screen.significant
    return (
        np.logical_or.reduceat(sig, part.row_shell_bounds[:-1], axis=0),
        np.logical_or.reduceat(sig, part.col_shell_bounds[:-1], axis=0),
    )


def _fetch_boxes(
    part: StaticPartition, u_r: np.ndarray, u_c: np.ndarray
) -> np.ndarray:
    """:func:`rank_fetch_boxes` from the blocks' Phi-unions."""
    gi, gj = np.divmod(np.arange(part.nproc), part.pcol)
    rb, cb, n = part.row_shell_bounds, part.col_shell_bounds, u_r.shape[1]
    r, c = (rb[gi], rb[gi + 1]), (cb[gj], cb[gj + 1])
    er = (u_r.argmax(axis=1)[gi], n - u_r[:, ::-1].argmax(axis=1)[gi])
    ec = (u_c.argmax(axis=1)[gj], n - u_c[:, ::-1].argmax(axis=1)[gj])
    return np.array([r + er, c + ec, er + ec], dtype=np.int64).transpose(2, 0, 1)


def rank_fetch_boxes(screen: ScreeningMap, part: StaticPartition) -> np.ndarray:
    """Every rank's three D fetch boxes, ``(nproc, 3, 4)`` rows of shell
    ranges ``(r0, r1, c0, c1)``: ``R x extent(U_R)``, ``C x extent(U_C)``
    and ``extent(U_R) x extent(U_C)`` for the rank's row block R, column
    block C and their Phi-unions U_R, U_C (Sec III-C's ``(M, Phi(M))``,
    ``(N, Phi(N))`` and ``(Phi(M), Phi(N))``).  Every row of a block has
    its diagonal pair, so each box is the bounding box of its region of
    :func:`block_footprint`'s union (``tests/test_prefetch_tasks.py``
    keeps that per-mask rule as the oracle)."""
    return _fetch_boxes(part, *_phi_unions(screen, part))


def _block_span(bounds: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """How many blocks of ``bounds`` each index range ``[lo, hi)`` overlaps."""
    first = np.searchsorted(bounds, lo, side="right")
    return np.searchsorted(bounds, hi - 1, side="right") - first + 1


def rank_footprints(
    screen: ScreeningMap, part: StaticPartition
) -> tuple[np.ndarray, np.ndarray]:
    """``(elements, prefetch_calls)`` of every rank's task block at once.

    Equal, rank by rank, to ``block_footprint(screen,
    part.task_block(p)).elements`` and to one GA call per (fetch box of
    :func:`rank_fetch_boxes`, owner block) intersection, but a function
    of the rank's block indices: no per-rank ``(nshells, nshells)`` mask
    is built, only per-row-block and per-column-block summaries of shape
    ``(prow | pcol, nshells)``.

    With ``s`` the shell sizes, ``S`` the significance matrix,
    ``r = s * (S s)`` the weight of each shell's row of pairs and
    ``U_R`` / ``U_C`` the Phi-unions of a row block R / column block C,
    inclusion-exclusion over rows | cols | cross gives::

        |union| = sum_R r + sum_C r + (s.U_R)(s.U_C)
                  - sum_{M in R} s_M (S (s * U_C))_M     # rows & cross
                  - sum_{N in C} U_R[N] r_N              # cols & cross

    The rows & cols term and the triple term are the same set (``M in
    Phi(M)`` puts every pair of a shared shell inside the cross block)
    and cancel.
    """
    sig = screen.significant
    s = screen.basis.shell_sizes().astype(np.int64)
    rb, cb = part.row_shell_bounds, part.col_shell_bounds
    u_r, u_c = _phi_unions(screen, part)
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
    boxes = _fetch_boxes(part, u_r, u_c)
    calls = (
        _block_span(rb, boxes[..., 0], boxes[..., 1])
        * _block_span(cb, boxes[..., 2], boxes[..., 3])
    ).sum(axis=1)
    return elements.ravel(), calls.astype(np.int64)
