"""Vectorized work/communication estimation for NWChem-style tasks.

Paper-scale molecules have far too many atom quartets for per-shell-
quartet Python enumeration, so the timing simulation aggregates at the
atom-pair level:

* every significant canonical atom pair (I >= J) carries a small
  *bucket summary* of its shell-pair Schwarz values (value quantiles with
  summed ERI weights);
* the ERI count of an atom quartet (IJ|KL) is the bucket-product count
  ``sum_{b1,b2} w1 w2 [v1 v2 > tau]``;
* all task costs are finally rescaled so their total matches the *exact*
  total unique ERI work from :func:`repro.fock.cost.quartet_cost_matrix`
  -- the bucket approximation shapes only the distribution, never the
  totals that Tables III/IV rest on.

Tasks follow Algorithm 2's granularity: chunks of 5 consecutive atom
quartets, enumerated as canonical significant (K, L) pairs with pair id
<= the task's own (I, J) pair (the "unique triplets + strided L loop"
structure of the paper, expressed over the significant-pair list).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.screening_map import ScreeningMap


@dataclass
class NWChemTaskArrays:
    """Flat arrays describing every NWChem task for the timing simulation."""

    #: per-task estimated compute seconds (already includes t_int)
    cost: np.ndarray
    #: per-task communication volume in bytes (D gets + F accs)
    comm_bytes: np.ndarray
    #: per-task number of one-sided calls
    comm_calls: np.ndarray
    #: total tasks
    ntasks: int
    #: exact total ERIs the costs were normalized to
    total_eris: float


def atom_sigma(screen: ScreeningMap) -> np.ndarray:
    """Atom-pair screening values: max over the atoms' shell pairs."""
    atom_of = screen.basis.atom_of_shell
    order = np.argsort(atom_of, kind="stable")
    starts = np.searchsorted(atom_of[order], np.arange(screen.basis.molecule.natoms))
    blocks = np.maximum.reduceat(np.maximum.reduceat(
        screen.sigma[np.ix_(order, order)], starts, axis=0), starts, axis=1)
    return np.tril(blocks) + np.tril(blocks, -1).T  # the (I >= J) blocks


def _atom_pair_buckets(
    screen: ScreeningMap, pairs: np.ndarray, nbuckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket summaries (values, weights) per canonical atom pair.

    Values are per-bucket maxima (conservative for the screening test),
    weights are summed ERI weights ``s_M s_N`` over the bucket's shell
    pairs.
    """
    basis = screen.basis
    sizes = basis.shell_sizes().astype(float)
    groups = basis.atom_shell_lists()
    sigma = screen.sigma
    npairs = len(pairs)
    v = np.zeros((npairs, nbuckets))
    w = np.zeros((npairs, nbuckets))
    for idx, (a, b) in enumerate(pairs):
        sa = np.asarray(groups[a], dtype=int)
        sb = np.asarray(groups[b], dtype=int)
        vals = sigma[np.ix_(sa, sb)].ravel()
        wts = np.outer(sizes[sa], sizes[sb]).ravel()
        order = np.argsort(vals)[::-1]
        vals, wts = vals[order], wts[order]
        cuts = np.linspace(0, vals.size, nbuckets + 1).astype(int)
        for b_i in range(nbuckets):
            lo, hi = cuts[b_i], cuts[b_i + 1]
            if hi > lo:
                v[idx, b_i] = vals[lo]  # bucket max (descending order)
                w[idx, b_i] = wts[lo:hi].sum()
    return v, w


def nwchem_task_shape(
    screen: ScreeningMap, chunk: int = 5, nbuckets: int = 4
) -> NWChemTaskArrays:
    """The machine-independent half of :func:`build_nwchem_task_arrays`.

    The task arrays of a unit machine: ``cost`` is the raw
    bucket-product ERI estimate, ``comm_bytes`` counts matrix elements
    and ``total_eris`` is the estimate's own total.  A function of the
    screen, ``chunk`` and ``nbuckets`` only, so it is built once and
    kept on the :class:`ScreeningMap`: one molecule's core sweep (and
    every machine configuration) scales the same arrays.
    """
    key = ("nwchem_task_shape", chunk, nbuckets)
    shape = screen.derived.get(key)
    if shape is None:
        shape = screen.derived[key] = _build_task_shape(screen, chunk, nbuckets)
    return shape


def _build_task_shape(
    screen: ScreeningMap, chunk: int, nbuckets: int
) -> NWChemTaskArrays:
    basis = screen.basis
    sig_at = atom_sigma(screen)
    natoms = sig_at.shape[0]
    tau = screen.tau

    # canonical significant atom pairs, ordered (the global task order)
    iu, ju = np.tril_indices(natoms)  # I >= J
    vals_at = sig_at[iu, ju]
    keep = vals_at * float(sig_at.max()) > tau
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    pvals = vals_at[keep]
    npairs = len(pairs)
    if npairs == 0:
        return NWChemTaskArrays(
            np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64), 0, 0.0
        )

    v, w = _atom_pair_buckets(screen, pairs, nbuckets)

    # atom function sizes for communication volumes
    offs = basis.offsets
    atom_of = basis.atom_of_shell
    fsizes = np.zeros(natoms)
    for s in range(basis.nshells):
        fsizes[atom_of[s]] += offs[s + 1] - offs[s]

    # tasks: for bra pair index i (in canonical order), ket pair indices
    # 0..i chunked by `chunk`.  Expand all (bra, ket) rows.
    nket = np.arange(1, npairs + 1)
    bra = np.repeat(np.arange(npairs), nket)
    row_start = np.cumsum(nket) - nket
    ket = np.arange(bra.size) - row_start[bra]
    ntask_of_bra = (nket + chunk - 1) // chunk
    row_task = (np.cumsum(ntask_of_bra) - ntask_of_bra)[bra] + ket // chunk
    ntasks = int(ntask_of_bra.sum())

    # atom-level screening of each quartet row
    survive = pvals[bra] * pvals[ket] > tau

    # bucket-product ERI estimate per surviving row, chunked for memory
    cost_rows = np.zeros(bra.size)
    idx = np.flatnonzero(survive)
    step = 200_000
    for s0 in range(0, idx.size, step):
        sel = idx[s0 : s0 + step]
        vb = v[bra[sel]][:, :, None] * v[ket[sel]][:, None, :]
        wb = w[bra[sel]][:, :, None] * w[ket[sel]][:, None, :]
        cost_rows[sel] = np.sum(wb * (vb > tau), axis=(1, 2))

    # communication: 6 D-block gets + 6 F-block accs per surviving quartet
    fi, fj = fsizes[pairs[:, 0]], fsizes[pairs[:, 1]]
    blk6 = (
        fi[bra] * fj[bra]
        + fi[ket] * fj[ket]
        + fi[bra] * fi[ket]
        + fj[bra] * fj[ket]
        + fi[bra] * fj[ket]
        + fj[bra] * fi[ket]
    )
    elements_rows = np.where(survive, 2.0 * blk6, 0.0)
    calls_rows = np.where(survive, 12, 0)
    cost = np.bincount(row_task, weights=cost_rows, minlength=ntasks)
    return NWChemTaskArrays(
        cost=cost,
        comm_bytes=np.bincount(row_task, weights=elements_rows, minlength=ntasks),
        comm_calls=np.bincount(
            row_task, weights=calls_rows, minlength=ntasks
        ).astype(np.int64),
        ntasks=ntasks,
        total_eris=float(cost.sum()),
    )


def build_nwchem_task_arrays(
    screen: ScreeningMap,
    total_eris: float,
    t_int: float,
    task_overhead: float,
    chunk: int = 5,
    nbuckets: int = 4,
    element_size: int = 8,
) -> NWChemTaskArrays:
    """All NWChem tasks with vectorized cost/communication estimates.

    Parameters
    ----------
    screen:
        Screening structure of the (atom-ordered) basis.
    total_eris:
        Exact total unique ERI count to normalize task costs to.
    t_int:
        Seconds per ERI for this engine (Table V).
    task_overhead:
        Fixed per-task bookkeeping seconds.
    """
    shape = nwchem_task_shape(screen, chunk, nbuckets)
    # normalize to the exact total ERI work, then convert to seconds
    scale = (total_eris / shape.total_eris) if shape.total_eris > 0 else 0.0
    return NWChemTaskArrays(
        cost=shape.cost * scale * t_int + task_overhead,
        # element counts are whole numbers: scaling the per-task sums
        # equals summing scaled rows, bit for bit
        comm_bytes=shape.comm_bytes * element_size,
        comm_calls=shape.comm_calls,
        ntasks=shape.ntasks,
        total_eris=total_eris,
    )
