"""Cross-quartet, class-batched ERI evaluation and J/K contraction.

The per-quartet kernels pay interpreter and dispatch overhead per shell
quartet -- exactly the loop structure the MPI/OpenMP Xeon Phi HF
restructure (arxiv 1708.00033) targets.  This module restructures the
loop the same way:

* **Class plan** (:func:`build_class_plan`): Schwarz-surviving canonical
  quartets are grouped by angular-momentum class -- the tuple
  ``(la, lb, lc, ld, pure flags, npp_bra, npp_ket)`` that fixes every
  array shape of the MD kernel.  On its first kernel sweep a class
  stacks the unique bra/ket :class:`~repro.integrals.pairdata.PairData`
  records into contiguous tensors, with per-quartet slots into them.
* **Class-batched kernel** (one sweep per chunk): a single
  :func:`~repro.integrals.pairdata.md_sweep` -- one tabulated
  ``boys_array`` and one compact
  :func:`~repro.integrals.hermite.r_tensor_batch` recursion over *all*
  primitive quartets of up to thousands of shell quartets, then two
  batched matmuls with a leading quartet axis -- replacing thousands of
  per-quartet kernel calls with a handful of large contractions.
* **Six-block contraction** (:func:`_contract_blocks`): every resolved
  chunk is staged with the other chunks of its *block shape* (``dims``
  -- all the contraction's array shapes depend on; the kernel's class
  key also carries primitive counts it does not care about) and each
  stage is flushed with six batched ``np.matmul`` + ``np.bincount``
  pairs -- the paper's six Fock blocks per unique quartet, weighted by
  ``1/|stabiliser|`` instead of replaying up to eight permutation images.
* **Threaded contraction** (:func:`jk_from_plan` ``threads=``): whole
  flushes are dealt cost-sorted across a thread pool, each worker
  accumulating into private J/K buffers that are reduced at the end.
* **Supermatrix** (:class:`Supermatrix`): conventional SCF done
  literally (Mitin, arxiv 1905.07779).  The first build a *ready*
  :class:`~repro.integrals.store.ERIStore` serves resolves the plan's
  chunks once and assembles them into two sparse matrices over flat
  ``(ij)`` pairs; every later build on that engine is four sparse
  mat-vecs against the flattened densities.

Every engine builds J/K here.  A chunk's blocks come from one of two
sources (:func:`_resolve_chunk`): *stored* (a ready store) or *compute*
-- the class kernel when the plan has pair data, else a stack of
per-row ``engine._quartet`` blocks (Obara-Saika and synthetic).  A
chunk is a slice of its class (:func:`jk_from_plan`, every row of the
plan) or an index array of selected rows (:func:`jk_from_rows`, the
rows of a GTFock rank or an NWChem task).

Numerics agree with the per-quartet scatter oracle
(``tests/reference_fock.py``) to summation order (tests pin <= 1e-10
elementwise across mixed s/p/d bases; the water benchmark gate pins
<= 1e-12 on J/K vs the reference kernel).
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.pairdata import (
    ShellPairData,
    StackedPairs,
    SweepOperands,
    md_sweep,
    stack_pairs,
)
from repro.util.validation import check_symmetric

if TYPE_CHECKING:  # imported by the assembly: direct SCF never pays for it
    from scipy import sparse

#: The 8 axis permutations of an (ab|cd) block under Eq (4)'s
#: permutational symmetry.  This is the one shared definition --
#: the task owners of :mod:`repro.fock.tasks` import it.
EIGHT_PERMUTATIONS: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 2, 3),
    (1, 0, 2, 3),
    (0, 1, 3, 2),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 0, 1),
    (2, 3, 1, 0),
    (3, 2, 1, 0),
)

#: budget (float64 elements) for the compact Hermite recursion rows of
#: one sweep (2 MiB).  A bound on peak memory -- every other temporary of
#: a sweep scales with it -- not a speed knob: the sweep time is flat from
#: 2^17 to 2^22 (docs/PERFORMANCE.md, "Kernel hot path")
MAX_R_WORK = 1 << 18

#: hard cap on shell quartets per chunk (index/scatter array sizes)
MAX_CHUNK_QUARTETS = 8192

#: budget (float64 elements) of resolved integral blocks staged for one
#: contraction flush; a flush's temporaries are about twice its blocks
MAX_STAGE_WORK = 1 << 19

#: block-axis pairs of the six Fock blocks a quartet (ab|cd) touches,
#: as (rows, columns) of the three matrix views J(ab|cd), K(ac|bd), K(ad|bc)
_PAIR_AXES = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def canonical_quartet_array(sigma: np.ndarray, tau: float) -> np.ndarray:
    """Canonical (M>=N, pair(MN) >= pair(PQ)) screened shell quartets as
    one ``(nq, 4)`` array, bra-major.

    ``sigma`` is the shell-pair Schwarz matrix; a quartet survives iff
    ``sigma[M,N] * sigma[P,Q] > tau``.  The canonical pairs
    ``(p, q <= p)`` in row-major order enumerate the kets, and the kets
    of bra pair ``i`` are pairs ``0..i`` -- one vectorised Schwarz test
    per bra pair.
    """
    pm, pn = np.tril_indices(sigma.shape[0])
    spair = sigma[pm, pn]
    bras, kets = [], []
    for i in np.flatnonzero(spair > 0.0):
        keep = np.flatnonzero(spair[i] * spair[:i + 1] > tau)
        bras.append(np.full(keep.size, i))
        kets.append(keep)
    if not bras:
        return np.empty((0, 4), dtype=np.int64)
    bra, ket = np.concatenate(bras), np.concatenate(kets)
    return np.stack([pm[bra], pn[bra], pm[ket], pn[ket]], axis=1)


def orbit_weights(quartets: np.ndarray) -> np.ndarray:
    """``1 / |stabiliser|`` of each index 4-tuple (rows, in any order).

    The stabiliser is the set of :data:`EIGHT_PERMUTATIONS` fixing the
    tuple, so ``8 * w`` is the number of distinct permutation images;
    for canonical tuples it is the familiar 1/2 per coincidence M=N,
    P=Q, MN=PQ.  Summing ``w * image`` over all eight permutations
    counts every distinct image exactly once.
    """
    a, b, c, d = np.asarray(quartets).reshape(-1, 4).T
    ab, cd = a == b, c == d
    ac_bd, ad_bc = (a == c) & (b == d), (a == d) & (b == c)
    # :data:`EIGHT_PERMUTATIONS` one by one: the identity, the swap
    # within the bra, within the ket, both; bra <-> ket alone, after
    # both swaps, and (twice) after one of them
    fixed = 1 + ab + cd + (ab & cd) + ac_bd + ad_bc + 2 * (ac_bd & ad_bc)
    return 1.0 / fixed


class KernelOperands(NamedTuple):
    """What the class kernel sweeps for one batch: the stacked unique
    bra/ket pair data, per-quartet slots into the stacks, and the
    sweep's precomputed constants."""

    ops: SweepOperands
    bra: StackedPairs
    ket: StackedPairs
    bra_slots: np.ndarray
    ket_slots: np.ndarray


@dataclass
class ClassBatch:
    """All surviving quartets of one angular-momentum class."""

    lkey: tuple[int, int, int, int]
    pure: tuple[bool, bool, bool, bool]
    #: basis-function block shape (spherical length on pure axes)
    dims: tuple[int, int, int, int]
    lmax: int
    #: primitive quartets per shell quartet
    nprim: int
    quartets: np.ndarray  # (nq, 4) int64
    #: :func:`orbit_weights` of ``quartets``
    weights: np.ndarray
    #: (6, nq) flat J/K index ``start_i * nbf + start_j`` of the first
    #: element of each :data:`_PAIR_AXES` block, per quartet
    pair_bases: np.ndarray
    #: the plan's pair data, which the class kernel sweeps; ``None`` on a
    #: plan built without it, whose rows come from ``engine._quartet``
    pair_cache: ShellPairData | None = field(repr=False, default=None)
    #: plan row of this batch's first quartet (seeded faults address rows)
    row0: int = 0
    _operands: KernelOperands | None = field(
        repr=False, default=None, compare=False
    )
    _operands_lock: threading.Lock = field(
        repr=False, default_factory=threading.Lock, compare=False
    )

    @property
    def nq(self) -> int:
        return int(self.quartets.shape[0])

    @property
    def block_size(self) -> int:
        d = self.dims
        return d[0] * d[1] * d[2] * d[3]

    @property
    def cost(self) -> float:
        """Estimated primitive-quartet work (thread balancing)."""
        return float(self.nq) * self.nprim * (self.lmax + 1) ** 4

    def chunk_rows(self) -> int:
        """Quartets per sweep under the :data:`MAX_R_WORK` budget."""
        # the compact recursion holds C(L+4, 4) vectors per primitive quartet
        per_q = self.nprim * math.comb(self.lmax + 4, 4)
        return int(max(1, min(MAX_CHUNK_QUARTETS, MAX_R_WORK // max(per_q, 1))))

    def operands(self) -> KernelOperands:
        """The class kernel's operands, stacked on the first sweep (a
        plan served entirely from a store never builds them) and built
        once however many ``jk_threads`` workers ask."""
        if self._operands is None:
            with self._operands_lock:
                if self._operands is None:
                    self._operands = self._stack_operands()
        return self._operands

    def _stack_operands(self) -> KernelOperands:
        pairs, ns = self.pair_cache, self.pair_cache.basis.nshells
        bra_slots, bra_pairs = _slot_pairs(self.quartets[:, :2], ns)
        ket_slots, ket_pairs = _slot_pairs(self.quartets[:, 2:], ns)
        bra = stack_pairs([pairs.get(i, j) for i, j in bra_pairs])
        ket = stack_pairs([pairs.get(i, j) for i, j in ket_pairs])
        return KernelOperands(
            SweepOperands.build(bra, ket, self.pure),
            bra, ket, bra_slots, ket_slots,
        )


#: one kernel work item: a class and the rows of it to resolve -- a
#: ``slice`` of a whole-plan build or an index array of selected rows
Chunk = tuple[ClassBatch, "slice | np.ndarray"]


def _nrows(rows) -> int:
    """Rows a chunk selects."""
    return rows.stop - rows.start if isinstance(rows, slice) else rows.size


@dataclass
class ClassPlan:
    """The class-grouped execution plan of one screened quartet set."""

    batches: list[ClassBatch]
    nquartets: int
    #: per-plan memo of structures other modules derive from the rows
    #: alone (the task owning each row, :mod:`repro.fock.tasks`)
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def chunks(self, rows: np.ndarray | None = None) -> list[Chunk]:
        """All work items, largest classes first: slices over every row,
        or index arrays over the selected ``rows`` (sorted plan rows)."""
        out = []
        if rows is None:
            for batch in self.batches:
                step = batch.chunk_rows()
                out += [(batch, slice(lo, min(lo + step, batch.nq)))
                        for lo in range(0, batch.nq, step)]
            return out
        cuts = np.searchsorted(
            rows, [b.row0 for b in self.batches] + [self.nquartets]
        )
        for i in np.flatnonzero(np.diff(cuts)):  # the classes selected
            batch = self.batches[i]
            step, mine = batch.chunk_rows(), rows[cuts[i]:cuts[i + 1]] - batch.row0
            out += [(batch, mine[lo:lo + step]) for lo in range(0, mine.size, step)]
        return out

    def flushes(self, rows: np.ndarray | None = None) -> list[list[Chunk]]:
        """The kernel chunks (of ``rows``, or of every row) grouped into
        contraction flushes.

        A flush is a run of same-shape chunks (any kernel class) holding
        at most :data:`MAX_STAGE_WORK` block elements -- or one chunk,
        if that alone is larger.
        """
        by_shape: dict[tuple, list] = {}
        for chunk in self.chunks(rows):
            by_shape.setdefault(chunk[0].dims, []).append(chunk)
        out = []
        for chunks in by_shape.values():
            held = MAX_STAGE_WORK  # full: the first chunk opens a flush
            for batch, sel in chunks:
                size = _nrows(sel) * batch.block_size
                if held + size > MAX_STAGE_WORK:
                    out.append([])
                    held = 0
                out[-1].append((batch, sel))
                held += size
        return out


def _slot_pairs(cols: np.ndarray, ns: int) -> tuple[np.ndarray, list]:
    """Slots into the unique (i, j) shell pairs of ``cols``, and the pairs."""
    keys, slots = np.unique(cols[:, 0] * ns + cols[:, 1], return_inverse=True)
    return slots, list(zip(*(v.tolist() for v in divmod(keys, ns))))


def _build_batch(
    basis: BasisSet,
    pair_cache: ShellPairData | None,
    qarr: np.ndarray,
    weights: np.ndarray,
    pair_bases: np.ndarray,
) -> ClassBatch:
    """The batch of ``qarr``, whose rows all share one class key."""
    sh = [basis.shells[i] for i in qarr[0]]
    lkey = tuple(s.l for s in sh)
    pure = tuple(s.pure for s in sh)
    return ClassBatch(
        lkey=lkey, pure=pure, dims=tuple(s.nbf for s in sh), lmax=sum(lkey),
        nprim=math.prod(s.nprim for s in sh),
        quartets=qarr, weights=weights, pair_bases=pair_bases,
        pair_cache=pair_cache,
    )


def build_class_plan(
    basis: BasisSet,
    pair_cache: ShellPairData | None,
    quartets,
) -> ClassPlan:
    """Group ``quartets`` (shell-index 4-tuples, or an (nq, 4) array) by class.

    The tuples may be in any index order (:func:`orbit_weights` holds
    for arbitrary tuples).  ``pair_cache`` supplies (and memoizes) the
    :class:`~repro.integrals.pairdata.PairData` each batch stacks on its
    first kernel sweep; an engine without that kernel passes ``None`` and
    gets a plan whose rows resolve through its own ``_quartet``.
    """
    if not isinstance(quartets, np.ndarray):
        quartets = list(quartets)
    qarr = np.asarray(quartets, dtype=np.int64).reshape(-1, 4)
    shells = basis.shells
    ang = np.array([s.l for s in shells])
    pure = np.array([int(s.pure) for s in shells])
    nprim = np.array([s.nprim for s in shells])
    nang, npp = int(ang.max()) + 1, int(nprim.max()) ** 2 + 1

    def pair_class(a, b):
        shape = (ang[a] * nang + ang[b]) * 4 + pure[a] * 2 + pure[b]
        return shape * npp + nprim[a] * nprim[b]

    keys = (
        pair_class(qarr[:, 0], qarr[:, 1]) * (4 * nang * nang * npp)
        + pair_class(qarr[:, 2], qarr[:, 3])
    )
    _, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    members = np.split(
        np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1]
    )
    n = basis.nbf
    starts = basis.offsets[qarr]
    weights = orbit_weights(qarr)
    pair_bases = np.stack(
        [starts[:, i] * n + starts[:, j] for i, j in _PAIR_AXES]
    ).astype(np.int32 if n * n < 2**31 else np.int64)
    batches = [
        _build_batch(
            basis, pair_cache, qarr[rows], weights[rows], pair_bases[:, rows]
        )
        for rows in members if rows.size
    ]
    batches.sort(key=lambda b: -b.cost)
    nquartets = 0
    for batch in batches:
        batch.row0 = nquartets
        nquartets += batch.nq
    return ClassPlan(batches=batches, nquartets=nquartets)


# ---------------------------------------------------------------------------
# the class-batched MD kernel
# ---------------------------------------------------------------------------


def compute_class_rows(batch: ClassBatch, rows) -> np.ndarray:
    """ERI blocks for ``rows`` of a class in one primitive sweep.

    Returns the stacked, finalized blocks of shape ``(nrows, *dims)``:
    one :func:`~repro.integrals.pairdata.md_sweep` over every primitive
    quartet of every selected shell quartet.
    """
    ops, bra, ket, bra_slots, ket_slots = batch.operands()
    return md_sweep(
        ops, bra, ket, bra_slots[rows], ket_slots[rows]
    ).reshape((-1,) + batch.dims)


# ---------------------------------------------------------------------------
# the six-block J/K contraction
# ---------------------------------------------------------------------------


def _weighted_flush(
    flush: list[Chunk], parts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """One flush of same-shape blocks as ``g = w (ab|cd)`` (``w`` the orbit
    weight), stacked over its quartets, and their ``(6, nq)``
    ``pair_bases``."""
    g = np.concatenate(parts)
    g *= np.concatenate([b.weights[rows] for b, rows in flush]).reshape(
        -1, 1, 1, 1, 1
    )
    return g, np.concatenate([b.pair_bases[:, rows] for b, rows in flush], 1)


def _contract_blocks(
    jt: np.ndarray,
    kt: np.ndarray,
    dflat: np.ndarray,
    n: int,
    flush: list[Chunk],
    parts: list[np.ndarray],
) -> None:
    """Accumulate one flush of same-shape blocks into half-J / half-K.

    With ``g = w (ab|cd)`` and symmetric D, the eight permutation images
    of a quartet collapse to six blocks::

        Jt[ab] += g D[cd]    Kt[ac] += g D[bd]    Kt[ad] += g D[bc]
        Jt[cd] += D[ab] g    Kt[bd] += D[ac] g    Kt[bc] += D[ad] g

    and ``J = 2 (Jt + Jt^T)``, ``K = Kt + Kt^T`` (taken by the caller).
    ``jt``/``kt``/``dflat`` are ``(ndens, n*n)``; each block is one
    batched matmul against gathered density blocks and one ``bincount``
    scatter-add per density.
    """
    g, bases = _weighted_flush(flush, parts)
    dims = g.shape[1:]
    index = [
        base[:, None]
        + (np.arange(dims[i])[:, None] * n + np.arange(dims[j])).ravel()
        for base, (i, j) in zip(bases, _PAIR_AXES)
    ]

    def scatter(acc, idx, vals):
        for a, v in zip(acc, vals):
            a += np.bincount(idx.ravel(), weights=v.ravel(), minlength=n * n)

    for view, acc in enumerate((jt, kt, kt)):
        (i, j), (k, l) = _PAIR_AXES[2 * view], _PAIR_AXES[2 * view + 1]
        rows, cols = index[2 * view], index[2 * view + 1]
        mat = g.transpose(0, i + 1, j + 1, k + 1, l + 1).reshape(
            len(g), dims[i] * dims[j], dims[k] * dims[l]
        )
        scatter(acc, rows, np.matmul(mat, dflat[:, cols][..., None]))
        scatter(acc, cols, np.matmul(dflat[:, rows][:, :, None, :], mat))


# ---------------------------------------------------------------------------
# the supermatrix: a ready store's integrals as two sparse matrices
# ---------------------------------------------------------------------------


@dataclass
class Supermatrix:
    """A plan's integrals as two CSR matrices over flat ``(ij)`` pairs.

    The six-block contraction is linear in D, so with ``d`` a flattened
    density it is ``Jt = M_J d + M_J^T d`` and ``Kt = M_K d + M_K^T d``
    where ``M_J[ab, cd] = g`` and ``M_K[ac, bd] + M_K[ad, bc] += g``
    (``g = w (ab|cd)``, exact zeros dropped): four sparse mat-vecs per
    build, whatever the plan's chunking.  It costs 12 bytes per
    non-zero of RAM (float64 value + int32 column): 2x the bytes of the
    store it was read from when half the stored integrals are exact
    zeros (axis-aligned geometries), up to 4.5x when none are.
    """

    plan: ClassPlan
    #: the store generation it was read at
    generation: int
    #: whether those reads were CRC-scrubbed (``store.verify_reads``)
    verified: bool
    #: plan rows the store served; the rest were computed at assembly
    served: int
    mj: sparse.csr_matrix
    mk: sparse.csr_matrix

    def serves(self, plan: ClassPlan, store) -> bool:
        """Whether a build of ``plan`` over ``store`` may contract this."""
        return (
            self.plan is plan
            and self.generation == store.generation
            and (self.verified or not store.verify_reads)
        )

    @property
    def nbytes(self) -> int:
        return sum(
            a.nbytes for m in (self.mj, self.mk)
            for a in (m.data, m.indices, m.indptr)
        )

    def contract(self, dflat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half-J and half-K, ``(ndens, n*n)`` each, of a density stack."""
        x = np.ascontiguousarray(dflat.T)
        return tuple(
            (m @ x + m.T @ x).T for m in (self.mj, self.mk)
        )


def _sparse_piece(
    n: int, g: np.ndarray, bases: np.ndarray
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """One weighted flush as its ``(M_J, M_K)`` contributions."""
    from scipy import sparse

    size = g[0].size
    nonzero = np.flatnonzero(g)
    vals = g.ravel()[nonzero]
    quartet, element = np.divmod(nonzero.astype(bases.dtype), size)
    coords = np.unravel_index(np.arange(size), g.shape[1:])

    def flat_index(block: int) -> np.ndarray:
        # of every kept element within its quartet's _PAIR_AXES block
        i, j = _PAIR_AXES[block]
        within = (coords[i] * n + coords[j]).astype(bases.dtype)
        return bases[block][quartet] + within[element]

    def view(rows: int, cols: int) -> sparse.csr_matrix:
        return sparse.coo_matrix(
            (vals, (flat_index(rows), flat_index(cols))), shape=(n * n, n * n)
        ).tocsr()

    # J's (ab, cd); K's (ac, bd) + (ad, bc), coincidences summed
    return view(0, 1), view(2, 3) + view(4, 5)


def _fold(partial: list, piece=None) -> None:
    """Push one CSR piece onto a stack of partial sums, adding it into
    the sums below while they are no more than twice its size: the stack
    stays logarithmic and every entry is moved O(log flushes) times,
    where one running sum would re-copy itself at every flush.  With no
    piece, collapse the stack to the one total."""
    if piece is not None:
        partial.append(piece)
    while len(partial) > 1 and (
        piece is None or partial[-2].nnz <= 2 * partial[-1].nnz
    ):
        top = partial.pop()  # popped, so each sum frees its operands
        partial[-1] = partial[-1] + top


def assemble_supermatrix(
    engine, plan: ClassPlan, store, faults, eri_span, jk_span
) -> tuple[Supermatrix, dict]:
    """Resolve every chunk of ``plan`` once -- read, CRC-scrubbed when the
    store verifies reads, bad or missing rows recomputed -- into a
    :class:`Supermatrix`; also returns the source counts.

    Each flush becomes one CSR piece that is folded into the partial
    sums at once, so the transient is one stage of blocks, never a
    whole-plan COO.  Single threaded: the matrices, hence every later
    J/K, are bitwise the same at any ``jk_threads``.
    """
    from scipy import sparse

    n = engine.basis.nbf
    # seeded with the empty sum: a plan may have no flush at all
    partial_j = [sparse.csr_matrix((n * n, n * n))]
    partial_k = [partial_j[0]]
    totals = dict.fromkeys(_COUNT_KEYS, 0)
    for flush in plan.flushes():
        parts = _resolve_flush(engine, flush, store, faults, eri_span, totals)
        with jk_span:
            piece_j, piece_k = _sparse_piece(n, *_weighted_flush(flush, parts))
            _fold(partial_j, piece_j)
            _fold(partial_k, piece_k)
    with jk_span:
        _fold(partial_j)
        _fold(partial_k)
    return Supermatrix(
        plan=plan, generation=store.generation, verified=store.verify_reads,
        served=totals["from_store"], mj=partial_j[0], mk=partial_k[0],
    ), totals


# ---------------------------------------------------------------------------
# chunk resolution: two sources, stored and compute
# ---------------------------------------------------------------------------


#: where a resolved row came from (tallied per chunk, summed per build)
_COUNT_KEYS = ("computed", "from_store", "rescued", "crc_rescued",
               "corrupted")


def compute_rows(engine, batch: ClassBatch, rows) -> np.ndarray:
    """Freshly computed blocks for ``rows`` (a slice or an index array):
    one class-kernel sweep when the plan has pair data, else the engine's
    own ``_quartet`` blocks stacked."""
    if batch.pair_cache is not None:
        return compute_class_rows(batch, rows)
    return np.stack(
        [engine._quartet(*quartet) for quartet in batch.quartets[rows].tolist()]
    )


def _resolve_chunk(
    engine, batch: ClassBatch, rows, store, faults
) -> tuple[np.ndarray, dict]:
    """The stacked blocks for ``rows`` of ``batch`` and where they came from.

    *Stored*: a ready store holding every row of the chunk serves it in
    one vectorized read.  *Compute*: otherwise the whole chunk is
    computed; ``faults`` (the build's pre-drawn seeded corruptions, or
    None; they ride whole-plan builds, whose chunks are slices) hit
    class-kernel rows only, before the NaN/Inf sentinel whose
    per-quartet rescue repairs them, and a filling store records the
    result.
    """
    quartets = batch.quartets[rows]
    nrows = len(quartets)
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    if store is not None and store.ready:
        sel = store.offsets_for(quartets)
        if (sel >= 0).all():
            blocks = store.read_stacked(sel, batch.block_size, batch.dims)
            if store.verify_reads:
                # rows whose bytes fail the finalize-time CRC are not
                # trusted: recompute them with the kernel that filled
                # the store (bitwise-identical values, so a corrupted
                # store never perturbs F)
                good = store.verify_stacked(sel, blocks)
                if not good.all():
                    bad = np.flatnonzero(~good)
                    blocks[bad] = compute_rows(
                        engine, batch, np.arange(batch.nq)[rows][bad]
                    )
                    counts["crc_rescued"] = len(bad)
            counts["from_store"] = nrows
            return blocks, counts
    blocks = compute_rows(engine, batch, rows)
    counts["computed"] = nrows
    if faults is not None and batch.pair_cache is not None:
        counts["corrupted"] = faults.corrupt_rows(blocks, batch.row0 + rows.start)
    if engine.finite_check and not np.isfinite(blocks.sum()):
        finite = np.isfinite(blocks.reshape(nrows, -1)).all(axis=1)
        for i in np.flatnonzero(~finite):
            blocks[i] = engine._rescue_quartet(*quartets[i].tolist())
            counts["rescued"] += 1
    if store is not None and store.filling:
        store.record_batch(quartets, blocks)
    return blocks, counts


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def resolve_jk_threads(threads: int | None) -> int:
    """Thread count for the J/K contraction (``REPRO_JK_THREADS`` default)."""
    if threads is None:
        threads = int(os.environ.get("REPRO_JK_THREADS", "1"))
    return max(1, int(threads))


#: set by :func:`interrupt_jk_threads` (a dying worker's SIGTERM handler):
#: a J/K build stops between chunks instead of draining its whole queue
#: while the process is trying to exit
_JK_INTERRUPT = threading.Event()


def interrupt_jk_threads() -> None:
    """Ask in-flight J/K builds to stop at the next chunk edge."""
    _JK_INTERRUPT.set()


def clear_jk_interrupt() -> None:
    _JK_INTERRUPT.clear()


class JKInterrupted(RuntimeError):
    """A J/K contraction was interrupted mid-build (job teardown)."""


def density_stack(density: np.ndarray, n: int) -> np.ndarray:
    """One ``(n, n)`` density or a stack ``(k, n, n)`` of them as a
    contiguous float64 stack, each checked symmetric (the six-block
    contraction reads ``D[cd]`` for ``D[dc]``)."""
    dens = np.ascontiguousarray(density, dtype=np.float64).reshape(-1, n, n)
    for d in dens:
        check_symmetric(d, "density", tol=1e-8)
    return dens


class _Stopwatch:
    """A worker thread's private stand-in for a profiler phase span."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.calls = 0

    def __enter__(self):
        self.t0, self.c0 = time.perf_counter(), time.thread_time()

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self.t0
        self.cpu += time.thread_time() - self.c0
        self.calls += 1
        return False


def _resolve_flush(engine, flush, store, faults, eri_span, totals) -> list:
    """The resolved blocks of every chunk of ``flush``, ``eri_span``
    around each resolution, source counts added to ``totals``."""
    parts = []
    for batch, rows in flush:
        if _JK_INTERRUPT.is_set():
            raise JKInterrupted("J/K build interrupted between chunks")
        with eri_span:
            blocks, counts = _resolve_chunk(engine, batch, rows, store, faults)
        parts.append(blocks)
        for key in _COUNT_KEYS:
            totals[key] += counts[key]
    return parts


def _run_flushes(engine, dflat, flushes, store, faults, eri_span, jk_span):
    """One worker's share: private half-J/half-K buffers + source counts,
    ``eri_span`` around every chunk resolution, ``jk_span`` every flush."""
    n = engine.basis.nbf
    jt = np.zeros_like(dflat)
    kt = np.zeros_like(dflat)
    totals = dict.fromkeys(_COUNT_KEYS, 0)
    for flush in flushes:
        parts = _resolve_flush(engine, flush, store, faults, eri_span, totals)
        with jk_span:
            _contract_blocks(jt, kt, dflat, n, flush, parts)
    return jt, kt, totals


def _tally(engine, totals: dict, faults) -> None:
    """Fold a build's source counts into the engine's counters (by the
    thread that owns the build)."""
    engine.quartets_computed += totals["computed"]
    engine.count_rescues(totals["rescued"])
    engine.crc_rescues += totals["crc_rescued"]
    if faults is not None:
        engine.scf_faults.quartets_corrupted += totals["corrupted"]


def jk_from_plan(
    engine,
    density: np.ndarray,
    plan: ClassPlan,
    tau: float | None = None,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """J and K matrices from a class plan, one batched sweep per chunk.

    ``density`` is one symmetric ``(n, n)`` matrix or a stack
    ``(k, n, n)`` of them; a stack shares one pass over the integrals
    and returns stacked ``(k, n, n)`` J and K.

    An attached ``engine.integral_store`` that is *ready* serves the
    build from the engine's :class:`Supermatrix`, assembled by the first
    such build (and again only for another plan, a store generation
    change or newly armed ``verify_reads``): no chunk is walked and
    ``threads`` is not consulted.  Every other build -- direct, or
    filling a store, which it then finalizes with ``tau`` -- is the
    six-block contraction: ``threads > 1`` deals the flushes, largest
    first, to the least-loaded worker of a thread pool; every worker
    owns private accumulators (reduced at the end) plus private phase
    timings, which are folded into the active profiler as one
    ``eri_quartets`` sample per kernel chunk and one ``jk_contraction``
    sample per flush -- never per quartet.

    An attached ``engine.scf_faults`` state has this build's corruptions
    drawn here, per plan row and before any worker starts, so the same
    rows are hit at every thread count.
    """
    from repro.obs import get_profiler
    from repro.obs.profile import PHASE_ERI, PHASE_JK

    n = engine.basis.nbf
    dflat = density_stack(density, n).reshape(-1, n * n)
    store = engine.integral_store
    faults = None
    if engine.scf_faults is not None:
        faults = engine.scf_faults.draw_build(plan.nquartets)
    prof = get_profiler()

    if store is not None and store.ready:
        sm = engine.supermatrix
        if sm is None or not sm.serves(plan, store):
            # dropped first: an assembly that fails (MemoryError, an
            # interrupt) leaves no half-built or stale matrix behind
            engine.supermatrix = None
            sm, totals = assemble_supermatrix(
                engine, plan, store, faults,
                prof.phase(PHASE_ERI), prof.phase(PHASE_JK),
            )
            _tally(engine, totals, faults)
            engine.supermatrix = sm
        with prof.phase(PHASE_JK):
            jt, kt = sm.contract(dflat)
        engine.quartets_served_from_store += sm.served
        engine.last_jk_worker_stats = []
        return _symmetrized(jt, kt, n, density)

    # a store that stopped being ready (invalidated) takes its matrix along
    engine.supermatrix = None
    flushes = plan.flushes()
    nthreads = resolve_jk_threads(threads)
    if nthreads <= 1 or len(flushes) <= 1:
        results = [_run_flushes(
            engine, dflat, flushes, store, faults,
            prof.phase(PHASE_ERI), prof.phase(PHASE_JK),
        )]
        engine.last_jk_worker_stats = []
    else:
        # largest flush first, each to the least-loaded worker
        costs = [sum(b.cost * _nrows(rows) / b.nq for b, rows in f)
                 for f in flushes]
        shares = [[] for _ in range(min(nthreads, len(flushes)))]
        loads = [0.0] * len(shares)
        for i in sorted(range(len(flushes)), key=lambda i: -costs[i]):
            worker = loads.index(min(loads))
            shares[worker].append(flushes[i])
            loads[worker] += costs[i]
        watches = [(_Stopwatch(), _Stopwatch()) for _ in shares]
        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            results = list(pool.map(
                lambda share, watch: _run_flushes(
                    engine, dflat, share, store, faults, *watch
                ),
                shares, watches,
            ))
        for eri, jk in watches:
            prof.add_sample(PHASE_ERI, eri.wall, eri.cpu, eri.calls)
            prof.add_sample(PHASE_JK, jk.wall, jk.cpu, jk.calls)
        engine.last_jk_worker_stats = [
            {"eri_wall": eri.wall, "eri_cpu": eri.cpu, "jk_wall": jk.wall,
             "jk_cpu": jk.cpu, "calls": eri.calls, "flushes": jk.calls,
             **totals}
            for (eri, jk), (_, _, totals) in zip(watches, results)
        ]

    _tally(
        engine, {key: sum(r[2][key] for r in results) for key in _COUNT_KEYS},
        faults,
    )
    if store is not None and store.filling and store.pending_blocks:
        store.finalize(tau)
    return _symmetrized(
        sum(r[0] for r in results), sum(r[1] for r in results), n, density
    )


def jk_from_rows(
    engine, density: np.ndarray, plan: ClassPlan, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """J and K of the selected plan ``rows`` (sorted) alone: the numeric
    distributed builds' pass over the rows of one GTFock rank or one
    NWChem task.  Every block is computed -- no store, no seeded faults,
    one thread -- through the chunk machinery of :func:`jk_from_plan`."""
    from repro.obs import get_profiler
    from repro.obs.profile import PHASE_ERI, PHASE_JK

    n = engine.basis.nbf
    prof = get_profiler()
    jt, kt, totals = _run_flushes(
        engine, density_stack(density, n).reshape(-1, n * n),
        plan.flushes(rows), None, None,
        prof.phase(PHASE_ERI), prof.phase(PHASE_JK),
    )
    _tally(engine, totals, None)
    return _symmetrized(jt, kt, n, density)


def _symmetrized(jt, kt, n: int, density) -> tuple[np.ndarray, np.ndarray]:
    """``J = 2 (Jt + Jt^T)``, ``K = Kt + Kt^T``, shaped like ``density``."""
    jt, kt = jt.reshape(-1, n, n), kt.reshape(-1, n, n)
    j = 2.0 * (jt + jt.transpose(0, 2, 1))
    k = kt + kt.transpose(0, 2, 1)
    return (j, k) if np.ndim(density) == 3 else (j[0], k[0])
