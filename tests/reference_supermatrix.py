"""The supermatrix as store format v2 assembled it: the oracle of the v3
store, whose file *is* the supermatrix.

A v2 store kept the plan's blocks end to end in ``blocks.bin`` (packed
quartet-key order), a per-block index in ``index.npz`` (keys, element
offsets, sizes, CRC-32s) and a version-2 manifest.  The first build it
served read every block in one-shape chunks, flushed each chunk into one
CSR piece and folded the pieces into logarithmic partial sums.  Here:

* :func:`write_v2_store` -- the v2 finalize, so tests can hand a v3 build
  a parent-format store (it must be invalidated and refilled, and
  ``repro verify`` must flag it, never misread it);
* :class:`V2Store` -- the v2 reads (offsets, stacked reads, per-block CRCs);
* :func:`assemble_supermatrix` -- the v2 assembly, from a v2 store (the
  rows it lacks computed) or from the kernel alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.chem.basis.basisset import BasisSet
from repro.integrals import class_batch
from repro.integrals.class_batch import MAX_STAGE_WORK, _PAIR_AXES


def kernel_blocks(engine, plan) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every row of ``plan`` as ``(quartets, blocks)`` per chunk member,
    computed by ``engine``'s kernel."""
    out = []
    for chunk in plan.chunks():
        for (batch, rows), blocks in zip(chunk, engine.compute_rows(chunk)):
            out.append((batch.quartets[rows], blocks))
    return out


def crc_rows(flat: np.ndarray) -> np.ndarray:
    """Per-row CRC-32 of a 2-D float64 array, as ``uint32``."""
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    rows = flat.view(f"V{8 * flat.shape[1]}").ravel()
    return np.fromiter(map(zlib.crc32, rows), np.uint32, len(rows))


def fingerprint_v2(basis: BasisSet) -> str:
    """The basis fingerprint a v2 manifest carried."""
    h = hashlib.sha256()
    h.update(f"v2:{basis.nbf}:{len(basis.shells)}".encode())
    for sh in basis.shells:
        h.update(f"|{sh.l}:{int(sh.pure)}".encode())
        for a in (sh.center, sh.exps, sh.norm_coefs):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _pack(quartets, s: int) -> np.ndarray:
    q = np.asarray(quartets, dtype=np.int64)
    return ((q[:, 0] * s + q[:, 1]) * s + q[:, 2]) * s + q[:, 3]


def write_v2_store(path, basis: BasisSet, tau: float, recorded) -> Path:
    """A v2 store of ``recorded`` ``(quartets, blocks)`` at ``path``: sorted
    unique keys (a key recorded twice keeps its first block), the blocks
    end to end in key order, their CRCs, the manifest last."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    s = len(basis.shells)
    pending = [(_pack(q, s), np.asarray(b, np.float64).reshape(len(q), -1))
               for q, b in recorded]
    keys = np.concatenate([k for k, _ in pending])
    sizes = np.concatenate([np.full(len(k), r.shape[1]) for k, r in pending])
    order = np.argsort(keys, kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    order = order[first]
    keys, sizes = keys[order], sizes[order]
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pos = np.full(first.size, -1)
    pos[order] = np.arange(order.size)
    flat = np.empty(int(sizes.sum()))
    crcs = np.empty(order.size, dtype=np.uint32)
    lo = 0
    for k, rows in pending:
        at = pos[lo:lo + len(k)]
        lo += len(k)
        rows, at = rows[at >= 0], at[at >= 0]
        flat[offsets[at][:, None] + np.arange(rows.shape[1])] = rows
        crcs[at] = crc_rows(rows)
    flat.tofile(path / "blocks.bin")
    with open(path / "index.npz", "wb") as fh:
        np.savez(fh, keys=keys, offsets=offsets, sizes=sizes, crcs=crcs)
    (path / "manifest.json").write_text(json.dumps({
        "version": 2, "basis_sha256": fingerprint_v2(basis),
        "blocks_sha256": hashlib.sha256(flat).hexdigest(),
        "basis_name": basis.name, "tau": float(tau), "nbf": int(basis.nbf),
        "nshells": s, "nblocks": int(keys.size), "nelements": int(flat.size),
        "created": "2026-01-01T00:00:00+00:00",
    }, indent=2) + "\n")
    return path


class V2Store:
    """The reads of a v2 store: keys -> element offsets, stacked reads of
    one block shape, per-block CRC checks."""

    def __init__(self, path, basis: BasisSet):
        with np.load(Path(path) / "index.npz") as idx:
            self.keys, self.offsets, self.crcs = idx["keys"], idx["offsets"], idx["crcs"]
        self.flat = np.memmap(Path(path) / "blocks.bin", dtype=np.float64, mode="r")
        self.nshells = len(basis.shells)

    def offsets_for(self, quartets) -> np.ndarray:
        """Element offsets of quartet rows; -1 where a key is missing."""
        keys = _pack(quartets, self.nshells)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[pos] == keys, self.offsets[pos], -1)

    def read_stacked(self, offsets, dims: tuple) -> np.ndarray:
        rows = self.flat[offsets[:, None] + np.arange(math.prod(dims))]
        return rows.reshape((len(offsets),) + tuple(dims))

    def verify_stacked(self, offsets, blocks) -> np.ndarray:
        pos = np.searchsorted(self.offsets, np.asarray(offsets, np.int64))
        return crc_rows(blocks.reshape(len(pos), -1)) == self.crcs[pos]


def _store_chunks(plan) -> list:
    """Every row of ``plan`` in chunks of one block shape and at most
    ``MAX_STAGE_WORK`` elements: how a v2 store was read."""
    by_dims: dict[tuple, list] = {}
    for batch in plan.batches:
        by_dims.setdefault(batch.dims, []).append(batch)
    chunks: list = []
    for batches in by_dims.values():
        step = held = max(1, MAX_STAGE_WORK // math.prod(batches[0].dims))
        for batch in batches:
            for lo in range(0, batch.nq, step):
                rows = np.arange(lo, min(lo + step, batch.nq))
                if held + rows.size > step:
                    chunks.append([])
                    held = 0
                chunks[-1].append((batch, rows))
                held += rows.size
    return chunks


def _kernel_parts(engine, chunk: list) -> list:
    """The kernel's blocks of a one-shape chunk: one engine call per
    family group among its members (an engine sweeps one group a call)."""
    out = {}
    for group in dict.fromkeys(batch.group for batch, _ in chunk):
        mine = [i for i, (batch, _) in enumerate(chunk) if batch.group is group]
        out.update(zip(mine, engine.compute_rows([chunk[i] for i in mine])))
    return [out[i] for i in range(len(chunk))]


def _sparse_piece(n: int, g: np.ndarray, bases: np.ndarray):
    """One weighted flush as its ``(M_J, M_K)`` contributions."""
    size = g[0].size
    nonzero = np.flatnonzero(g)
    vals = g.ravel()[nonzero]
    quartet, element = np.divmod(nonzero.astype(bases.dtype), size)
    coords = np.unravel_index(np.arange(size), g.shape[1:])

    def flat_index(block: int) -> np.ndarray:
        i, j = _PAIR_AXES[block]
        within = (coords[i] * n + coords[j]).astype(bases.dtype)
        return bases[block][quartet] + within[element]

    def view(rows: int, cols: int):
        return sparse.coo_matrix(
            (vals, (flat_index(rows), flat_index(cols))), shape=(n * n, n * n)
        ).tocsr()

    return view(0, 1), view(2, 3) + view(4, 5)


def _fold(partial: list, piece=None) -> None:
    """Push a CSR piece onto logarithmic partial sums (none: collapse)."""
    if piece is not None:
        partial.append(piece)
    while len(partial) > 1 and (
        piece is None or partial[-2].nnz <= 2 * partial[-1].nnz
    ):
        top = partial.pop()
        partial[-1] = partial[-1] + top


def assemble_supermatrix(engine, plan, store: V2Store | None = None):
    """``(M_J, M_K, served)`` of ``plan`` as v2 assembled them: per
    one-shape chunk the stored blocks when ``store`` holds every row
    (CRC-failing rows recomputed), else the kernel's."""
    n = engine.basis.nbf
    partial_j = [sparse.csr_matrix((n * n, n * n))]
    partial_k = [partial_j[0]]
    served = 0
    for chunk in _store_chunks(plan):
        quartets = np.concatenate([b.quartets[rows] for b, rows in chunk])
        sel = None if store is None else store.offsets_for(quartets)
        if sel is not None and (sel >= 0).all():
            blocks = store.read_stacked(sel, chunk[0][0].dims)
            served += len(sel)
            cuts = np.cumsum([rows.size for _, rows in chunk])[:-1]
            parts = np.split(blocks, cuts)
            bad = np.split(~store.verify_stacked(sel, blocks), cuts)
            for (batch, rows), part, mask in zip(chunk, parts, bad):
                if mask.any():
                    part[mask] = engine.compute_rows([(batch, rows[mask])])[0]
        else:
            parts = _kernel_parts(engine, chunk)
        piece_j, piece_k = _sparse_piece(n, *class_batch._weighted_flush(chunk, parts))
        _fold(partial_j, piece_j)
        _fold(partial_k, piece_k)
    _fold(partial_j)
    _fold(partial_k)
    return partial_j[0], partial_k[0], served
