"""The COO assembly of a fill's M_J and M_K: the oracle a ``SlotFill``'s
CSR arrays are checked against, dtypes included (tests/test_supermatrix.py).

Every element of every view is listed with its (row, column); SciPy's
COO -> CSR conversion sums the two K views of an element that land on
one entry, sorts each row's columns, and zeros (and sums that cancel)
are eliminated after.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import _VIEWS


def reference_pair_matrices(
    basis: BasisSet, pieces
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """``(M_J, M_K)`` of weighted same-shape blocks ``(quartets, g)``: one
    COO -> CSR per matrix, M_K's built once M_J's is done."""
    n, offsets = basis.nbf, basis.offsets
    idx = np.int32 if n * n < 2**31 else np.int64

    def csr(views) -> sparse.csr_matrix:
        size = sum(g.size for _, g in pieces) * len(views)
        vals, rows, cols = np.empty(size), np.empty(size, idx), np.empty(size, idx)
        lo = 0
        for q, g in pieces:
            first = offsets[q].astype(idx)
            for perm in views:
                t = g.transpose(0, *(1 + p for p in perm))
                a, b, c, d = (first[:, p, None] + np.arange(m, dtype=idx)
                              for p, m in zip(perm, t.shape[1:]))
                at = slice(lo, lo + t.size)
                vals[at] = t.ravel()
                rows[at].reshape(t.shape)[...] = (a[:, :, None] * n + b[:, None])[..., None, None]
                cols[at].reshape(t.shape)[...] = (c[:, :, None] * n + d[:, None])[:, None, None]
                lo += t.size
        m = sparse.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))
        m.eliminate_zeros()
        return m

    return csr(_VIEWS[:1]), csr(_VIEWS[1:])
