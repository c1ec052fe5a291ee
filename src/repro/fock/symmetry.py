"""Unique-quartet enforcement for shell-pair tasks (Sec III-B/III-C).

Task ``(M,: | N,:)`` nominally touches every quartet ``(MP|NQ)``; the
8-fold permutational symmetry of Eq (4) means only one eighth must be
computed.  The paper enforces uniqueness with a parity *SymmetryCheck*
on index pairs instead of triangular loop bounds, so that the task grid
stays a full ``nshells x nshells`` rectangle that can be block-partitioned.

:func:`symmetry_check` is the paper's parity tournament; :func:`task_computes`
adds the tie-break for diagonal tasks, which would compute both
``(MP|MQ)`` and its mirror ``(MQ|MP)``.  Both are elementwise over index
arrays (:func:`repro.fock.tasks.gtfock_task_rows` applies them to every
plan row's eight images at once); the test suite checks them against
the scalar loops they replaced, and that every orbit is computed by
*exactly one* (task, loop point) across the task grid.
"""

from __future__ import annotations

import numpy as np


def symmetry_check(m, n):
    """The paper's parity SymmetryCheck, extended with C(x, x) = True.

    For ``m != n`` exactly one of ``(m, n)`` / ``(n, m)`` passes:
    the larger-first orientation iff the index sum is even.
    """
    m, n = np.asarray(m), np.asarray(n)
    return (m == n) | ((m + n) % 2 == (m < n))


def task_computes(m, n, p, q):
    """Does task ``(M,:|N,:)`` compute quartet ``(MP|NQ)``?

    True iff SymmetryCheck passes on (M,N), (M,P) and (N,Q) -- Algorithm 3
    -- with one extra tie-break: in diagonal tasks (M == N), the bra/ket
    mirror loop point (Q, P) would satisfy the same checks, so only
    ``P <= Q`` is kept.
    """
    return (
        symmetry_check(m, n) & symmetry_check(m, p) & symmetry_check(n, q)
        & ((np.asarray(m) != n) | (np.asarray(p) <= q))
    )
