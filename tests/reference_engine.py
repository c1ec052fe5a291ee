"""An MD engine on the per-primitive reference kernel.

A differential oracle for the class kernel: every block comes from
:func:`repro.integrals.eri_md.eri_shell_quartet` (the independent slow
kernel the production engine only *rescues* flagged rows on), and class
plans carry no kernel operands, so rows resolve through ``_quartet``.
Production code must not import this module.
"""

from __future__ import annotations

import numpy as np

from repro.integrals.engine import ERIEngine
from repro.integrals.eri_md import eri_shell_quartet
from repro.integrals.schwarz import schwarz_matrix


class ReferenceMDEngine(ERIEngine):
    """Real ERIs, one per-primitive Python-loop quartet at a time."""

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        sh = self.basis.shells
        return eri_shell_quartet(sh[m], sh[n], sh[p], sh[q])

    def _build_schwarz(self) -> np.ndarray:
        return schwarz_matrix(self.basis)
