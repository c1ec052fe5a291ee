"""Brute-force dense J/K reference: no symmetry, no screening.

Loops all ``nshells^4`` quartets; exponentially slower than the
production path but with no shared logic beyond the engine's kernel
(``quartet_blocks``), so it independently validates symmetry
exploitation and screening.  An oracle for ``tests/test_scf_fock.py``
-- keep the systems tiny.
"""

from __future__ import annotations

import numpy as np

from reference_engine import quartet_blocks
from repro.integrals.engine import ERIEngine


def dense_fock_reference(
    engine: ERIEngine, density: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(J, K) from the full unsymmetrized quartet sum.

    ``J_ij = sum_kl (ij|kl) D_kl`` and ``K_ij = sum_kl (ik|jl) D_kl``
    evaluated by enumerating every (M, N, P, Q) shell combination.
    """
    basis = engine.basis
    n = basis.nbf
    j = np.zeros((n, n))
    k = np.zeros((n, n))
    ns = basis.nshells
    slices = basis.shell_slices
    blocks = quartet_blocks(engine, np.ndindex(ns, ns, ns, ns))
    for m in range(ns):
        for nn in range(ns):
            for p in range(ns):
                for q in range(ns):
                    blk = blocks[m, nn, p, q]
                    sm, sn, sp, sq = slices[m], slices[nn], slices[p], slices[q]
                    j[sm, sn] += np.einsum("abcd,cd->ab", blk, density[sp, sq])
                    k[sm, sp] += np.einsum("abcd,bd->ac", blk, density[sn, sq])
    return j, k
