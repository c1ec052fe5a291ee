"""Initial static 2-D task partitioning (Sec III-C).

The ``nshells x nshells`` grid of shell-pair tasks is cut into
``prow x pcol`` rectangular blocks; process ``p_ij`` initially owns the
tasks ``(i*nbr : (i+1)*nbr - 1, :  |  j*nbc : (j+1)*nbc - 1, :)``.
The same boundaries distribute the F and D matrices 2-D-blocked by shell
blocks -- which is exactly the layout SUMMA purification wants afterwards
(Sec IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.runtime.ga import block_bounds, grid_shape


@dataclass(frozen=True)
class TaskBlock:
    """A rectangular block of shell-pair tasks."""

    row_lo: int
    row_hi: int  # exclusive
    col_lo: int
    col_hi: int  # exclusive

    @property
    def ntasks(self) -> int:
        return (self.row_hi - self.row_lo) * (self.col_hi - self.col_lo)

    def rows(self) -> np.ndarray:
        return np.arange(self.row_lo, self.row_hi)

    def cols(self) -> np.ndarray:
        return np.arange(self.col_lo, self.col_hi)


@dataclass
class StaticPartition:
    """The static 2-D partition of tasks and matrices over a process grid."""

    nshells: int
    prow: int
    pcol: int
    #: shell-index boundaries, len prow+1 / pcol+1
    row_shell_bounds: np.ndarray
    col_shell_bounds: np.ndarray

    @classmethod
    def build(cls, nshells: int, nproc: int) -> "StaticPartition":
        """Near-square grid with even shell-block boundaries."""
        prow, pcol = grid_shape(nproc)
        if nshells < max(prow, pcol):
            raise ValueError(
                f"{nshells} shells cannot be split over a {prow}x{pcol} grid"
            )
        return cls(
            nshells=nshells,
            prow=prow,
            pcol=pcol,
            row_shell_bounds=block_bounds(nshells, prow),
            col_shell_bounds=block_bounds(nshells, pcol),
        )

    @property
    def nproc(self) -> int:
        return self.prow * self.pcol

    def proc_id(self, gi: int, gj: int) -> int:
        return gi * self.pcol + gj

    def grid_coords(self, proc: int) -> tuple[int, int]:
        return divmod(proc, self.pcol)

    def task_block(self, proc: int) -> TaskBlock:
        """The task block initially assigned to a process."""
        gi, gj = self.grid_coords(proc)
        return TaskBlock(
            row_lo=int(self.row_shell_bounds[gi]),
            row_hi=int(self.row_shell_bounds[gi + 1]),
            col_lo=int(self.col_shell_bounds[gj]),
            col_hi=int(self.col_shell_bounds[gj + 1]),
        )

    def matrix_bounds(self, basis: BasisSet) -> tuple[np.ndarray, np.ndarray]:
        """Function-index boundaries for distributing F/D on this grid.

        Process ``p_ij`` owns the F and D shell blocks of its task block's
        shell-pair indices (Sec III-E).
        """
        offs = basis.offsets
        rb = offs[self.row_shell_bounds]
        cb = offs[self.col_shell_bounds]
        return rb.astype(int), cb.astype(int)
