"""An MD engine on the per-primitive reference kernel, and one-row plans.

A differential oracle for the class kernel: every block comes from
:func:`repro.integrals.eri_md.eri_shell_quartet` (the independent slow
kernel the production engine only *rescues* flagged rows on), and class
plans carry no kernel operands, so rows resolve through ``_quartet``.
:func:`quartet_block` is how tests ask any engine for one block: a
one-row class plan through the production chunk resolver
(:func:`quartet_blocks` for many at once); :func:`class_rows` sweeps
rows of one class.
Production code must not import this module.
"""

from __future__ import annotations

import numpy as np

from repro.integrals import class_batch
from repro.integrals.engine import ERIEngine
from repro.integrals.eri_md import eri_shell_quartet
from repro.integrals.schwarz import schwarz_matrix


def quartet_blocks(engine, quartets) -> dict:
    """The ERI blocks of ``quartets`` (shell 4-tuples, any index order)
    keyed by tuple: one class plan resolved chunk by chunk by the
    engine's own kernel -- computed, counted in ``quartets_computed``,
    rescued when the NaN/Inf sentinel is armed."""
    plan = class_batch.build_class_plan(engine.basis, engine.pair_cache, quartets)
    out = {}
    for chunk in plan.chunks():
        parts, counts = class_batch._resolve_chunk(engine, chunk, None, None)
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


class ReferenceMDEngine(ERIEngine):
    """Real ERIs, one per-primitive Python-loop quartet at a time."""

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        sh = self.basis.shells
        return eri_shell_quartet(sh[m], sh[n], sh[p], sh[q])

    def _build_schwarz(self) -> np.ndarray:
        return schwarz_matrix(self.basis)
