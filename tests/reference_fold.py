"""The unfolded supermatrix a v3 store held, and the COO fold that turns it
into the v4 store's: the oracles of ``SlotFill.folded`` and of every
served build.

Up to format v3 a store held M_J and M_K (one CSR matrix each, 12 bytes
per non-zero), and a served build was four sparse mat-vecs over them.
Here:

* :func:`reference_fold` -- the COO fold of M_J / M_K: every entry moved
  to the canonical position of its 8-fold index orbit (:func:`orbit_keys`), the entries of a
  position summed in input order (M_J's in CSR order, then M_K's), and
  ``P = 4 J' - K'`` and ``K'`` on the union pattern, zeros dropped; a
  fill sums a position's terms in another order, so
  :func:`assert_fold_matches` holds its pattern bitwise and its values to
  summation order;
* :func:`unfolded_jk` -- the v3 served build over M_J / M_K;
* :func:`write_v3_store` -- the v3 finalize, so tests can hand a v4
  build a parent-format store (it must be refilled, never misread).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import Folded


def orbit_keys(basis: BasisSet, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per entry ``(ij, kl)`` its orbit's canonical position ``row * n^2 +
    col``: each pair ``max n + min``, and the row the pair whose shells,
    larger first, are the larger pair of shells -- of one pair of shells,
    the larger pair."""
    n, shell = basis.nbf, np.repeat(np.arange(basis.nshells), np.diff(basis.offsets))
    (i, j), (k, l) = np.divmod(rows.astype(np.int64), n), np.divmod(cols.astype(np.int64), n)
    bra = np.maximum(i, j) * n + np.minimum(i, j)
    ket = np.maximum(k, l) * n + np.minimum(k, l)
    order = [shell[x // n] * basis.nshells + shell[x % n] for x in (bra, ket)]
    swap = (order[0] < order[1]) | (order[0] == order[1]) & (bra < ket)
    return np.where(swap, ket, bra) * (n * n) + np.where(swap, bra, ket)


def reference_fold(basis: BasisSet, mj, mk, every: bool = False) -> tuple[Folded, Folded]:
    """The folded arrays of CSR ``M_J`` and ``M_K`` (int32 indices), the
    positions whose P and K' are both zero dropped (``every``: kept); and on
    the same pattern each position's magnitude sums, ``4 |J'| + |K'|`` for
    P and ``|K'|`` for K'."""
    n = basis.nbf
    keys = [
        orbit_keys(basis, np.repeat(np.arange(n * n), np.diff(m.indptr)), m.indices)
        for m in (mj, mk)
    ]
    pos, inv = np.unique(np.concatenate(keys), return_inverse=True)
    jf, kf, ja, ka = np.zeros((4, len(pos)))
    for sums, mags, m, at in ((jf, ja, mj, inv[:len(keys[0])]), (kf, ka, mk, inv[len(keys[0]):])):
        np.add.at(sums, at, m.data)
        np.add.at(mags, at, np.abs(m.data))
    pf = 4.0 * jf - kf
    keep = (pf != 0) | (kf != 0) | every
    row, col = np.divmod(pos[keep], n * n)
    indptr = np.searchsorted(row, np.arange(n * n + 1)).astype(np.int32)
    col = col.astype(np.int32)
    return (Folded(pf[keep], kf[keep], col, indptr),
            Folded((4.0 * ja + ka)[keep], ka[keep], col, indptr))


def assert_fold_matches(got: Folded, basis: BasisSet, mj, mk) -> None:
    """``got`` is the COO fold of ``M_J`` / ``M_K`` to summation order: each
    of its positions one the terms fold into, every P and K' value within
    64 ulp of its terms' magnitude sum (a position sums at most 24 terms,
    in either order within ``2 (24 - 1)`` ulp of that sum), and a position
    dropped only if its sums are zero to that bound."""
    want, bound = reference_fold(basis, mj, mk, every=True)
    n = basis.nbf

    def keys(f):
        return np.repeat(np.arange(n * n), np.diff(f.indptr)) * (n * n) + f.indices

    for name in ("indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    at = np.searchsorted(keys(want), keys(got))
    assert (np.diff(keys(got)) > 0).all() and np.array_equal(keys(want)[at], keys(got))
    for name in ("p", "k"):
        mine = np.zeros(len(want.p))
        mine[at] = getattr(got, name)
        err = np.abs(mine - getattr(want, name))
        assert (err <= 64 * np.finfo(float).eps * getattr(bound, name)).all(), name
    assert ((got.p != 0) | (got.k != 0)).all()


def unfolded_jk(mj, mk, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J and K of one symmetric density as a v3 store served them: four
    sparse mat-vecs, ``J = 2 (Jt + Jt^T)`` and ``K = Kt + Kt^T``."""
    n = density.shape[0]
    d = density.reshape(-1)
    jt, kt = ((m @ d + m.T @ d).reshape(n, n) for m in (mj, mk))
    return 2.0 * (jt + jt.T), kt + kt.T


def write_v3_store(path, basis: BasisSet, tau: float, mj, mk, nblocks: int) -> Path:
    """A v3 store of CSR ``M_J`` / ``M_K`` at ``path``: ``supermatrix.bin``
    (per matrix its data, indices and indptr, each padded to 8 bytes), a
    CRC-32 per segment and matrix, the manifest last."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    mats = {"mj": mj, "mk": mk}
    rows = (basis.offsets * basis.nbf).tolist()
    index = np.result_type(*(getattr(m, a) for m in mats.values()
                             for a in ("indices", "indptr")))
    digest, crcs, blob = hashlib.sha256(), [], bytearray()
    for m in mats.values():
        arrays = (m.data.astype(np.float64), m.indices.astype(index), m.indptr.astype(index))
        nnz = m.indptr[rows]
        for r0, r1, z0, z1 in zip(rows[:-1], rows[1:], nnz[:-1], nnz[1:]):
            crc = 0
            for a, (lo, hi) in zip(arrays, ((z0, z1), (z0, z1), (r0 + (r0 > 0), r1 + 1))):
                crc = zlib.crc32(a[lo:hi], crc)
            crcs.append(crc)
        for a in arrays:
            blob += a.tobytes() + bytes(-a.nbytes % 8)
    digest.update(blob)
    (path / "supermatrix.bin").write_bytes(bytes(blob))
    manifest = {
        "version": 3, "basis_sha256": _fingerprint_v3(basis),
        "basis_name": basis.name, "tau": float(tau), "nbf": int(basis.nbf),
        "nshells": len(basis.shells), "nblocks": int(nblocks), "index_dtype": index.name,
        "rows": rows, "nnz": {k: m.indptr[rows].tolist() for k, m in mats.items()},
        "crcs": crcs, "data_sha256": digest.hexdigest(), "nbytes": len(blob),
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _fingerprint_v3(basis: BasisSet) -> str:
    """The basis fingerprint a v3 manifest carried (the version is hashed in)."""
    h = hashlib.sha256()
    h.update(f"v3:{basis.nbf}:{len(basis.shells)}".encode())
    for sh in basis.shells:
        h.update(f"|{sh.l}:{int(sh.pure)}".encode())
        for a in (sh.center, sh.exps, sh.norm_coefs):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()
