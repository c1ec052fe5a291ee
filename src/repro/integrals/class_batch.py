"""Cross-quartet, class-batched ERI evaluation and J/K contraction.

The per-quartet kernels pay interpreter and dispatch overhead per shell
quartet -- exactly the loop structure the MPI/OpenMP Xeon Phi HF
restructure (arxiv 1708.00033) targets.  This module restructures the
loop the same way:

* **Class plan** (:func:`build_class_plan`): Schwarz-surviving canonical
  quartets are grouped by class -- the tuple ``(la, lb, lc, ld, pure
  flags, npp_bra, npp_ket, lmax_f)`` that fixes every array shape of the
  MD kernel, ``lmax_f`` being the summed max L of the row's four
  *exponent families* (:func:`~repro.integrals.pairdata.shell_families`).
  Classes sharing ``lmax_f`` and the primitive-pair counts form a
  :class:`FamilyGroup`; a class's rows are sorted by family quartet.
* **Family-batched kernel** (one sweep per chunk): a chunk is a run of a
  group's family quartets and every member class's rows there.  One
  :func:`~repro.integrals.pairdata.md_sweep` runs ``boys_array`` and the
  compact ``r_tensor_batch`` recursion *once per family quartet* -- the
  sp shells of STO-3G and 6-31G share their primitive work -- then per
  member one Hermite-row gather and two batched matmuls.  Group and
  class operands are stacked on their first sweep.
* **Six-block contraction** (:func:`_contract_blocks`): resolved blocks
  are staged by *block shape* (``dims``) and each stage is flushed with
  six batched ``np.matmul`` + ``np.bincount`` pairs -- the paper's six
  Fock blocks per unique quartet, weighted by ``1/|stabiliser|`` instead
  of replaying up to eight permutation images.
* **Threaded contraction** (:func:`jk_from_plan` ``threads=``): whole
  chunks are dealt cost-sorted across a thread pool, each worker
  staging into private J/K buffers that are reduced at the end.
* **Supermatrix** (:class:`Supermatrix`): conventional SCF done
  literally (Mitin, arxiv 1905.07779).  The build that fills an
  :class:`~repro.integrals.store.ERIStore` keeps the weighted blocks it
  contracts and turns them into the plan's two sparse matrices over flat
  ``(ij)`` pairs (:func:`pair_matrices`), which the store writes; the
  first build it serves memory-maps them (:func:`map_supermatrix`) into
  the store's one slot, and every build over that store is four sparse
  mat-vecs, with no plan and no Schwarz matrix.

Every engine builds J/K here.  A chunk's blocks are computed
(:func:`_resolve_chunk`) by ``engine.compute_rows``, the one engine
seam: the MD class kernel or the batched Obara-Saika kernel, which also
recomputes the rows the NaN/Inf sentinel flags (``engine.rescue_rows``).
Everything row-addressed (seeded faults, the sentinel) sees one
``(batch, rows, blocks)`` per member, ``rows`` an index array into the
class: the plan rows whose Schwarz bound times the density passes
``tau`` (:func:`jk_from_plan`, :func:`density_rows`; a store fill takes
every row) or selected ones (:func:`jk_from_rows`, the rows of a GTFock
rank or an NWChem task).

Numerics agree with the per-quartet scatter oracle
(``tests/reference_fock.py``) to summation order (tests pin <= 1e-10
elementwise across mixed s/p/d bases; the water benchmark gate pins
<= 1e-12 on J/K vs the reference kernel).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.pairdata import (
    FamilyOperands,
    ShellPairData,
    SweepOperands,
    md_sweep,
    shell_families,
)
from repro.obs import phase
from repro.obs.profile import PHASE_ERI, PHASE_JK
from repro.util.validation import check_symmetric

if TYPE_CHECKING:  # imported by a store-backed build: direct SCF never pays for it
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


#: one lock for every lazy operand stack (each is built once per plan)
_OPERANDS_LOCK = threading.Lock()


class _LazyOperands:
    """Kernel operands stacked on the first sweep that needs them -- a
    plan served entirely from a store never builds them -- and built
    once however many ``jk_threads`` workers ask."""

    _operands = None

    def operands(self):
        if self._operands is None:
            with _OPERANDS_LOCK:
                if self._operands is None:
                    self._operands = self._stack_operands()
        return self._operands


@dataclass(eq=False)
class FamilyGroup(_LazyOperands):
    """The family quartets one family stage sweeps together: those of
    the classes sharing a family max L and primitive-pair counts."""

    #: summed max L of each family quartet's four families
    lmax: int
    #: primitive quartets per family quartet
    nprim: int
    #: (nfq, 4) int32: per family quartet the shells of one of its rows
    quartets: np.ndarray
    pair_cache: ShellPairData | None = field(repr=False, default=None)

    def chunk_size(self) -> int:
        """Family quartets per sweep under the :data:`MAX_R_WORK` budget."""
        # the compact recursion holds C(L+4, 4) vectors per primitive quartet
        per_fq = self.nprim * math.comb(self.lmax + 4, 4)
        return int(max(1, min(MAX_CHUNK_QUARTETS, MAX_R_WORK // per_fq)))

    def _stack_operands(self) -> FamilyOperands:
        return FamilyOperands.build(self.pair_cache, self.quartets)


@dataclass(eq=False)
class ClassBatch(_LazyOperands):
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
    #: the family group the rows sweep in, and per row its family
    #: quartet there (ascending: the rows are sorted by it)
    group: FamilyGroup = field(repr=False)
    fids: np.ndarray = field(repr=False)
    #: the plan's pair data, which the MD class kernel sweeps (``None``:
    #: a plan no MD sweep may run on)
    pair_cache: ShellPairData | None = field(repr=False, default=None)
    #: plan row of this batch's first quartet (seeded faults address rows)
    row0: int = 0

    @property
    def nq(self) -> int:
        return int(self.quartets.shape[0])

    @property
    def cost(self) -> float:
        """Estimated primitive-quartet work (thread balancing)."""
        return float(self.nq) * self.nprim * (self.lmax + 1) ** 4

    def _stack_operands(self) -> SweepOperands:
        return SweepOperands.build(self.pair_cache, self.quartets, self.group.lmax)


#: one class's share of a kernel work item: the class, an index array of rows
Chunk = tuple[ClassBatch, np.ndarray]


@dataclass
class ClassPlan:
    """The class-grouped execution plan of one screened quartet set."""

    batches: list[ClassBatch]
    nquartets: int
    #: each family group and its member batches, costliest first (a batch
    #: points at its group, never back: no cycle keeps a dropped plan alive)
    groups: dict[FamilyGroup, list[ClassBatch]]
    #: per-plan memo of structures other modules derive from the rows
    #: alone (the task owning each row, :mod:`repro.fock.tasks`)
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def chunks(self, rows: np.ndarray | None = None) -> list[list[Chunk]]:
        """The kernel work items, one family sweep each: at most
        ``chunk_size()`` family quartets of a group with, per member
        class, its rows there -- all of them, or those among ``rows``
        (strictly increasing plan rows, else ``ValueError``)."""
        selected = rows is not None
        rows = self._checked(rows) if selected else np.arange(self.nquartets)
        cuts = np.searchsorted(rows, [b.row0 for b in self.batches] + [self.nquartets])
        picked = {
            id(b): rows[lo:hi] - b.row0
            for b, lo, hi in zip(self.batches, cuts[:-1], cuts[1:]) if hi > lo
        }
        out = []
        for group, batches in self.groups.items():
            members = [(b, picked[id(b)]) for b in batches if id(b) in picked]
            if not members:
                continue
            fids = [b.fids[sel] for b, sel in members]
            need = (np.unique(np.concatenate(fids)) if selected
                    else np.arange(len(group.quartets)))
            edges = np.append(need[:: group.chunk_size()], need[-1] + 1)
            cuts = [np.searchsorted(f, edges) for f in fids]
            out += [
                [(b, sel[c[i]:c[i + 1]])
                 for (b, sel), c in zip(members, cuts) if c[i + 1] > c[i]]
                for i in range(len(edges) - 1)
            ]
        return out

    def _checked(self, rows) -> np.ndarray:
        """``rows`` as an array, if strictly increasing plan rows."""
        rows, n = np.asarray(rows), self.nquartets
        if rows.size and not (
            rows.ndim == 1 and np.issubdtype(rows.dtype, np.integer)
            and 0 <= rows[0] and rows[-1] < n and (np.diff(rows) > 0).all()
        ):
            raise ValueError(f"rows must be strictly increasing plan rows in [0, {n})")
        return rows.astype(np.int64).reshape(-1)


def _family_keys(
    basis: BasisSet, pair_cache: ShellPairData | None, qarr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[FamilyGroup]]:
    """Per row of ``qarr`` its class key and family quartet, numbered
    group by group (group ``g`` holds ``gcut[g]:gcut[g + 1]``), and the
    groups, each with one head row per family quartet."""
    ang = np.array([s.l for s in basis.shells])
    nprim = np.array([s.nprim for s in basis.shells])
    shape = ang * 2 + np.array([s.pure for s in basis.shells])  # (l, pure)
    family = shell_families(basis)
    nfam, nshape = int(family.max()) + 1, int(shape.max()) + 1
    npp = int(nprim.max()) ** 2 + 1
    fam_l = np.zeros(nfam, dtype=np.int64)
    np.maximum.at(fam_l, family, ang)
    fam_l = fam_l[family]  # per shell

    def pair_keys(a, b):  # family max L, primitive pairs, class, family pair
        npp_ab = nprim[a] * nprim[b]
        return (fam_l[a] + fam_l[b], npp_ab, (shape[a] * nshape + shape[b]) * npp
                + npp_ab, family[a] * nfam + family[b])

    (l_bra, n_bra, c_bra, f_bra), (l_ket, n_ket, c_ket, f_ket) = (
        pair_keys(qarr[:, 0], qarr[:, 1]), pair_keys(qarr[:, 2], qarr[:, 3])
    )
    lmax_f = l_bra + l_ket
    gkey = (lmax_f * npp + n_bra) * npp + n_ket
    keys = (c_bra * (nshape * nshape * npp) + c_ket) * (2 * nshape) + lmax_f
    fkey = f_bra * nfam**2 + f_ket
    _, heads, fid = np.unique(fkey, return_index=True, return_inverse=True)
    by_group = np.argsort(gkey[heads], kind="stable")  # family quartets
    rank = np.empty_like(by_group)
    rank[by_group] = np.arange(by_group.size)
    fid, heads = rank[fid.reshape(-1)].astype(np.int32), heads[by_group]
    gcut = np.append(np.flatnonzero(np.diff(gkey[heads], prepend=-1)), len(heads))
    groups = [
        FamilyGroup(
            lmax=int(lmax_f[heads[lo]]), nprim=int(n_bra[heads[lo]] * n_ket[heads[lo]]),
            quartets=qarr[heads[lo:hi]].astype(np.int32), pair_cache=pair_cache,
        )
        for lo, hi in zip(gcut[:-1].tolist(), gcut[1:].tolist())
    ]
    return keys, fid, gcut, groups


def build_class_plan(
    basis: BasisSet,
    pair_cache: ShellPairData | None,
    quartets,
) -> ClassPlan:
    """Group ``quartets`` (shell-index 4-tuples, or an (nq, 4) array) by class.

    The class key is everything that fixes the kernel's array shapes
    (see the module docstring); a class's rows are sorted by family
    quartet, so a run of a group's family quartets is a run of every
    member's rows.

    The tuples may be in any index order (:func:`orbit_weights` holds
    for arbitrary tuples).  ``pair_cache`` supplies (and memoizes) the
    :class:`~repro.integrals.pairdata.PairData` the operands stack on
    their first sweep (``None``: a plan the MD kernel never sweeps).
    """
    if not isinstance(quartets, np.ndarray):
        quartets = list(quartets)
    qarr = np.asarray(quartets, dtype=np.int64).reshape(-1, 4)
    keys, fid, gcut, groups = _family_keys(basis, pair_cache, qarr)
    # rows by class, then family quartet (then canonical order)
    order = np.argsort(keys * gcut[-1] + fid, kind="stable")
    keys, fid, quartets = keys[order], fid[order], qarr[order]
    del order
    cuts = np.append(np.flatnonzero(np.diff(keys, prepend=-1)), len(keys))
    group_of = np.searchsorted(gcut, fid[cuts[:-1]], side="right") - 1
    fid -= np.repeat(gcut[group_of], np.diff(cuts))  # within the group
    n = basis.nbf
    weights = orbit_weights(quartets)
    offsets = basis.offsets.astype(np.int32 if n * n < 2**31 else np.int64)
    bases = np.empty((len(_PAIR_AXES), len(quartets)), offsets.dtype)
    for base, (i, j) in zip(bases, _PAIR_AXES):
        np.multiply(offsets[quartets[:, i]], n, out=base)
        base += offsets[quartets[:, j]]
    # per-class copies, not views: small arrays fill the heap's free holes
    # and the whole-plan arrays are released (scf_stored peak RSS -5 MB)
    batches, shells = [], [(s.l, s.pure, s.nbf, s.nprim) for s in basis.shells]
    for lo, hi, g in zip(cuts[:-1].tolist(), cuts[1:].tolist(), group_of):
        lkey, pure, dims, nprim = zip(*(shells[i] for i in quartets[lo].tolist()))
        batches.append(ClassBatch(
            lkey=lkey, pure=pure, dims=dims, lmax=sum(lkey), nprim=math.prod(nprim),
            quartets=quartets[lo:hi].copy(), weights=weights[lo:hi].copy(),
            pair_bases=bases[:, lo:hi].copy(),
            group=groups[g], fids=fid[lo:hi].copy(), pair_cache=pair_cache,
        ))
    batches.sort(key=lambda b: -b.cost)
    nquartets = 0
    members: dict[FamilyGroup, list[ClassBatch]] = {}
    for batch in batches:
        batch.row0 = nquartets
        nquartets += batch.nq
        members.setdefault(batch.group, []).append(batch)
    return ClassPlan(batches=batches, nquartets=nquartets, groups=members)


# ---------------------------------------------------------------------------
# the class-batched MD kernel
# ---------------------------------------------------------------------------


def compute_class_rows(chunk: list[Chunk]) -> list[np.ndarray]:
    """ERI blocks ``(nrows, *dims)`` of every ``(batch, rows)`` of one
    family sweep: one :func:`~repro.integrals.pairdata.md_sweep` over the
    union of the rows' family quartets (the batches share a group)."""
    group = chunk[0][0].group
    fids = [batch.fids[rows] for batch, rows in chunk]
    fq, at = np.unique(np.concatenate(fids), return_inverse=True)
    at = np.split(at, np.cumsum([f.size for f in fids])[:-1])
    blocks = md_sweep(group.lmax, group.operands(), fq, [
        (batch.operands(), f, rows) for (batch, rows), f in zip(chunk, at)
    ])
    return [blk.reshape((-1,) + batch.dims) for blk, (batch, _) in zip(blocks, chunk)]


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
    g: np.ndarray,
    bases: np.ndarray,
) -> None:
    """Accumulate one flush of same-shape blocks into half-J / half-K:
    ``g`` and ``bases`` as :func:`_weighted_flush` makes them.

    With ``g = w (ab|cd)`` and symmetric D, the eight permutation images
    of a quartet collapse to six blocks::

        Jt[ab] += g D[cd]    Kt[ac] += g D[bd]    Kt[ad] += g D[bc]
        Jt[cd] += D[ab] g    Kt[bd] += D[ac] g    Kt[bc] += D[ad] g

    and ``J = 2 (Jt + Jt^T)``, ``K = Kt + Kt^T`` (taken by the caller).
    ``jt``/``kt``/``dflat`` are ``(ndens, n*n)``; each block is one
    batched matmul against gathered density blocks and one ``bincount``
    scatter-add per density.
    """
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
# the supermatrix: a plan's integrals as two sparse matrices
# ---------------------------------------------------------------------------


@dataclass
class Supermatrix:
    """A plan's integrals as two CSR matrices over flat ``(ij)`` pairs.

    The six-block contraction is linear in D, so with ``d`` a flattened
    density it is ``Jt = M_J d + M_J^T d`` and ``Kt = M_K d + M_K^T d``
    where ``M_J[ab, cd] = g`` and ``M_K[ac, bd] + M_K[ad, bc] += g``
    (``g = w (ab|cd)``, exact zeros dropped): four sparse mat-vecs per
    build.  Every entry is one quartet's value or a sum of two of its
    values; row ``(a, x)`` holds only quartets whose first shell has
    ``a``.  A ready store's file holds the two matrices (12 bytes per
    non-zero: float64 value, int32 column), served memory-mapped from the
    store's one slot (``ERIStore.supermatrix``).
    """

    #: whether its segments were CRC-checked (``store.verify_reads``)
    verified: bool
    mj: sparse.csr_matrix
    mk: sparse.csr_matrix

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


#: M_J's view of a block and M_K's two, as axis orders: rows, then columns
_VIEWS = ((0, 1, 2, 3),), ((0, 2, 1, 3), (0, 3, 1, 2))


def pair_matrices(
    basis: BasisSet, pieces
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """``(M_J, M_K)`` of weighted same-shape blocks ``(quartets, g)``: one
    COO -> CSR per matrix, M_K's built once M_J's is done.  Every element
    is listed, so the two K views of an element that land on one entry
    are summed there; exact zeros (and sums that cancel) are dropped
    after, as the rows are sorted."""
    from scipy import sparse

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

    return csr(_VIEWS[0]), csr(_VIEWS[1])


def _piece(flush: list[Chunk], g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A flush as :func:`pair_matrices` takes it: its quartets and ``g``."""
    return np.concatenate([b.quartets[rows] for b, rows in flush]), g


def _computed_matrices(engine, chunks, totals):
    """``(M_J, M_K)`` of the rows of ``chunks``, computed (source counts
    added to ``totals``)."""
    pieces = [
        _piece(flush, _weighted_flush(flush, parts)[0])
        for flush, parts in _flushes(engine, chunks, None, totals)
    ]
    with phase(PHASE_JK):
        return pair_matrices(engine.basis, pieces)


def _mapped_matrices(engine, store):
    """The store's ``(M_J, M_K)``, memory-mapped, each segment that fails
    its check rebuilt from the rows of its shell in the plan at the
    manifest's tau, planned only then (CRC rescues) -- or ``None`` if a
    rebuilt segment does not fit its slot (another kernel's exact zeros)."""
    from scipy import sparse

    cuts, nnzs = store.offsets_for()
    arrays = store.read_stacked()
    good = store.verify_stacked(arrays)
    bad = np.flatnonzero(~np.logical_and(*good))  # segment s: rows of shell s
    if bad.size:
        plan = engine.class_plan(store.manifest["tau"])
        first = np.concatenate([batch.quartets[:, 0] for batch in plan.batches])
        counts = dict.fromkeys(_COUNT_KEYS, 0)
        fresh = _computed_matrices(
            engine, plan.chunks(np.flatnonzero(np.isin(first, bad))), counts)
        engine.crc_rescues += counts["computed"]
        for (data, indices, indptr), nnz, ok, piece in zip(arrays, nnzs, good, fresh):
            for s in np.flatnonzero(~ok):
                r0, r1, z0, z1 = cuts[s], cuts[s + 1], nnz[s], nnz[s + 1]
                lo, hi = piece.indptr[r0], piece.indptr[r1]
                if hi - lo != z1 - z0:
                    return None
                data[z0:z1] = piece.data[lo:hi]
                indices[z0:z1] = piece.indices[lo:hi]
                indptr[r0:r1 + 1] = piece.indptr[r0:r1 + 1] - lo + z0
    n2 = engine.basis.nbf ** 2
    return tuple(sparse.csr_matrix(a, shape=(n2, n2)) for a in arrays)


def map_supermatrix(engine, store) -> Supermatrix | None:
    """The :class:`Supermatrix` of a ready ``store``: its matrices,
    memory-mapped, with every segment that fails its check rebuilt in
    place.  A rebuilt segment that does not fit its slot invalidates the
    store (``None``: the build fills it again).  Single threaded: the
    matrices, hence every J/K, are bitwise the same at any ``jk_threads``.
    """
    matrices = _mapped_matrices(engine, store)
    if matrices is None:
        store.invalidate("a rebuilt segment does not fit its slot")
        return None
    return Supermatrix(verified=store.verify_reads, mj=matrices[0], mk=matrices[1])


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


#: where a resolved row came from (tallied per chunk, summed per build)
_COUNT_KEYS = ("computed", "rescued", "corrupted")


def _resolve_chunk(engine, chunk: list[Chunk], faults) -> tuple[list, dict]:
    """The stacked blocks of every ``(batch, rows)`` of ``chunk``, from
    ``engine.compute_rows``, and the counts of how they were made.

    ``faults`` (the build's pre-drawn seeded corruptions, or None) hit
    class-kernel rows only, before the NaN/Inf sentinel, which sends
    each member's non-finite rows to one ``engine.rescue_rows`` call.
    """
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    parts = engine.compute_rows(chunk)
    for (batch, rows), blocks in zip(chunk, parts):
        counts["computed"] += len(blocks)
        if faults is not None and engine.class_kernel:
            counts["corrupted"] += faults.corrupt_rows(blocks, batch.row0 + rows)
        if engine.finite_check and not np.isfinite(blocks.sum()):
            bad = ~np.isfinite(blocks.reshape(len(blocks), -1)).all(axis=1)
            blocks[bad] = engine.rescue_rows(batch, rows[bad])
            counts["rescued"] += int(bad.sum())
    return parts, counts


def resolve_jk_threads(threads: int | None) -> int:
    """Thread count for the J/K contraction (``None``: serial); a count
    that is not an integer >= 1 (a ``bool``, ``float`` or ``str`` is not)
    is a ``ValueError``."""
    if threads is None:
        return 1
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) \
            or threads < 1:
        raise ValueError(f"jk_threads must be an integer >= 1, got {threads!r}")
    return int(threads)


#: set by :func:`interrupt_jk_threads` (a dying worker's SIGTERM handler):
#: a J/K build stops between chunks instead of draining its whole queue
#: while the process is trying to exit
_JK_INTERRUPT = threading.Event()


def interrupt_jk_threads() -> None:
    """Ask in-flight J/K builds to stop at the next chunk edge."""
    _JK_INTERRUPT.set()


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


def _flushes(engine, chunks, faults, totals):
    """Resolve ``chunks`` in order -- an ``eri_quartets`` phase each,
    source counts added to ``totals`` -- and yield their blocks as contraction
    flushes ``(members, parts)``.

    Members are staged by block shape (``dims`` -- all the contraction's
    array shapes depend on).  The stages together hold at most
    :data:`MAX_STAGE_WORK` block elements (or one member, if that alone
    is larger): a member that does not fit first flushes the fullest
    stages.  What is staged when the chunks are done is flushed last.
    """
    stages: dict[tuple, list] = {}  # dims -> [elements, members, parts]
    held = 0
    for chunk in chunks:
        if _JK_INTERRUPT.is_set():
            raise JKInterrupted("J/K build interrupted between chunks")
        with phase(PHASE_ERI):
            parts, counts = _resolve_chunk(engine, chunk, faults)
        for key in _COUNT_KEYS:
            totals[key] += counts[key]
        for member, blocks in zip(chunk, parts):
            while stages and held + blocks.size > MAX_STAGE_WORK:
                size, *flush = stages.pop(max(stages, key=lambda d: stages[d][0]))
                held -= size
                yield flush
            stage = stages.setdefault(member[0].dims, [0, [], []])
            stage[0] += blocks.size
            stage[1].append(member)
            stage[2].append(blocks)
            held += blocks.size
    for _, *flush in stages.values():
        yield flush


def density_rows(engine, plan: ClassPlan, dens: np.ndarray, tau: float):
    """The plan rows a computed build of the density stack ``dens``
    contracts -- ``sigma_MN sigma_PQ w >= tau``, ``w`` the largest block
    maximum of |D| (over the stack) on the six shell pairs the quartet
    touches: MN, PQ, MP, NQ, MQ, NP -- or ``None`` for every row.

    As ``|(ab|cd)| <= sigma_MN sigma_PQ``, a dropped quartet moves each
    element of its six half-J / half-K blocks by less than ``tau`` times
    its orbit weight times the size of the block it contracts over.  The
    rows' pair indices and ``sigma sigma`` are memoized on the plan.
    """
    sigma, ns = engine.schwarz(), engine.basis.nshells
    memo = plan.derived.get("density_rows")
    if memo is None or memo[0] is not sigma:
        q = np.concatenate([b.quartets for b in plan.batches] + [np.zeros((0, 4), int)])
        pairs = np.stack([q[:, i] * ns + q[:, j] for i, j in _PAIR_AXES]).astype(np.int32)
        memo = plan.derived["density_rows"] = (
            sigma, pairs, sigma.ravel()[pairs[0]] * sigma.ravel()[pairs[1]],
        )
    _, pairs, sigsig = memo
    starts = engine.basis.offsets[:-1]
    blocks = np.maximum.reduceat(np.abs(dens).max(axis=0), starts, axis=0)
    blocks = np.maximum.reduceat(blocks, starts, axis=1).ravel()
    w = blocks[pairs[0]]
    for p in pairs[1:]:
        np.maximum(w, blocks[p], out=w)
    keep = sigsig * w >= tau
    return None if keep.all() else np.flatnonzero(keep)


def _run_chunks(engine, dflat, chunks, pieces, faults):
    """One worker's share: private half-J/half-K buffers + source counts,
    a ``jk_contraction`` phase around every flush.  A store fill passes a
    ``pieces`` list: each flush appends its quartets and the weighted
    blocks it contracted (:func:`_piece`)."""
    n = engine.basis.nbf
    jt = np.zeros_like(dflat)
    kt = np.zeros_like(dflat)
    totals = dict.fromkeys(_COUNT_KEYS, 0)
    for flush, parts in _flushes(engine, chunks, faults, totals):
        with phase(PHASE_JK):
            g, bases = _weighted_flush(flush, parts)
            _contract_blocks(jt, kt, dflat, n, g, bases)
        if pieces is not None:
            pieces.append(_piece(flush, g))
    return jt, kt, totals


def _tally(engine, totals: dict, faults) -> None:
    """Fold a build's source counts into the engine's counters (by the
    thread that owns the build)."""
    engine.quartets_computed += totals["computed"]
    engine.count_rescues(totals["rescued"])
    if faults is not None:
        engine.scf_faults.quartets_corrupted += totals["corrupted"]


def jk_from_plan(
    engine,
    density: np.ndarray,
    tau: float,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """J and K matrices over the engine's class plan at ``tau``
    (:meth:`~repro.integrals.engine.ERIEngine.class_plan`), one family
    sweep per chunk.

    ``density`` is one symmetric ``(n, n)`` matrix or a stack
    ``(k, n, n)`` of them; a stack shares one pass over the integrals
    and returns stacked ``(k, n, n)`` J and K.

    An attached ``engine.integral_store`` that is *ready* at ``tau``
    serves the build from the store's :class:`Supermatrix`, mapped by
    the first such build (:func:`map_supermatrix`; again only once the
    store's content changes or ``verify_reads`` is armed over an
    unverified mapping): nothing is planned, no chunk is walked and
    ``threads`` is not consulted.  A ready store at another tau, or one
    :func:`map_supermatrix` cannot patch, is invalidated and this build
    fills it.  Every other build -- direct, or filling a store -- is the
    six-block contraction over the plan.  A direct build computes only
    the rows :func:`density_rows` keeps at ``tau``; a fill computes every
    row, keeps the weighted blocks it contracts, and hands the store
    their :func:`pair_matrices` to finalize at ``tau``.  ``threads > 1``
    deals the kernel chunks, largest first, to the least-loaded worker
    of a thread pool; every worker stages and flushes its own blocks
    into private accumulators (reduced at the end).  At any thread count
    the thread doing the work records one ``eri_quartets`` phase per
    kernel chunk and one ``jk_contraction`` phase per flush -- never per
    quartet.

    An attached ``engine.scf_faults`` state has this build's corruptions
    drawn here, per plan row and before any worker starts, so the same
    rows are hit at every thread count; a victim on a row the density
    screen drops never fires.  A served build draws over the store's
    rows (the filling plan's), so later builds keep their ordinals.
    """
    n = engine.basis.nbf
    dflat = density_stack(density, n).reshape(-1, n * n)
    store = engine.integral_store
    if store is not None and store.ready and store.manifest["tau"] != tau:
        store.invalidate(f"filled at tau {store.manifest['tau']!r}, "
                         f"this build's is {tau!r}")
    served = store is not None and store.ready
    faults = None
    if engine.scf_faults is not None:
        faults = engine.scf_faults.draw_build(
            store.nblocks if served else engine.class_plan(tau).nquartets)

    if served:
        sm = store.supermatrix
        if sm is None or store.verify_reads and not sm.verified:
            # dropped first: a mapping that fails (MemoryError, an
            # interrupt) leaves no half-built or stale matrix behind
            store.supermatrix = None
            sm = store.supermatrix = map_supermatrix(engine, store)
        if sm is not None:
            with phase(PHASE_JK):
                jt, kt = sm.contract(dflat)
            engine.quartets_served_from_store += store.nblocks
            engine.last_jk_worker_stats = []
            return _symmetrized(jt, kt, n, density)

    plan = engine.class_plan(tau)
    pieces = [] if store is not None and store.filling else None
    chunks = plan.chunks(None if pieces is not None else density_rows(
        engine, plan, dflat.reshape(-1, n, n), tau
    ))
    nthreads = resolve_jk_threads(threads)
    if nthreads <= 1 or len(chunks) <= 1:
        results = [_run_chunks(engine, dflat, chunks, pieces, faults)]
        engine.last_jk_worker_stats = []
    else:
        # largest chunk first, each to the least-loaded worker
        costs = [sum(b.cost * rows.size / b.nq for b, rows in c) for c in chunks]
        shares = [[] for _ in range(min(nthreads, len(chunks)))]
        loads = [0.0] * len(shares)
        for i in sorted(range(len(chunks)), key=lambda i: -costs[i]):
            worker = loads.index(min(loads))
            shares[worker].append(chunks[i])
            loads[worker] += costs[i]

        def timed_share(share):
            t0 = time.perf_counter()
            result = _run_chunks(engine, dflat, share, pieces, faults)
            return result, time.perf_counter() - t0

        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            results, walls = zip(*pool.map(timed_share, shares))
        engine.last_jk_worker_stats = [
            {"wall": wall, **totals} for wall, (_, _, totals) in zip(walls, results)
        ]

    _tally(
        engine, {key: sum(r[2][key] for r in results) for key in _COUNT_KEYS},
        faults,
    )
    if pieces:
        store.record_batch(*pair_matrices(engine.basis, pieces), plan.nquartets)
        store.finalize(tau)
    return _symmetrized(
        sum(r[0] for r in results), sum(r[1] for r in results), n, density
    )


def jk_from_rows(
    engine, density: np.ndarray, plan: ClassPlan, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """J and K of the selected plan ``rows`` (strictly increasing, else
    ``ValueError``) alone: the numeric distributed builds' pass over the
    rows of one GTFock rank or one NWChem task.  Every block is computed
    -- no store, no seeded faults, one thread -- through the chunk
    machinery of :func:`jk_from_plan`."""
    n = engine.basis.nbf
    jt, kt, totals = _run_chunks(
        engine, density_stack(density, n).reshape(-1, n * n),
        plan.chunks(rows), None, None,
    )
    _tally(engine, totals, None)
    return _symmetrized(jt, kt, n, density)


def _symmetrized(jt, kt, n: int, density) -> tuple[np.ndarray, np.ndarray]:
    """``J = 2 (Jt + Jt^T)``, ``K = Kt + Kt^T``, shaped like ``density``."""
    jt, kt = jt.reshape(-1, n, n), kt.reshape(-1, n, n)
    j = 2.0 * (jt + jt.transpose(0, 2, 1))
    k = kt + kt.transpose(0, 2, 1)
    return (j, k) if np.ndim(density) == 3 else (j[0], k[0])
