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
  member one Hermite-row gather and two batched matmuls, both stages
  gathering straight from the pair data's stacks at the plan's slots.
* **Six-block contraction** (:func:`_contract_blocks`): resolved blocks
  are staged by *block shape* (``dims``) and each stage is flushed with
  six batched ``np.matmul`` + ``np.bincount`` pairs -- the paper's six
  Fock blocks per unique quartet, weighted by ``1/|stabiliser|`` instead
  of replaying up to eight permutation images.
* **Supermatrix** (:class:`Supermatrix`): conventional SCF done
  literally (Mitin, arxiv 1905.07779), folded as Raffenetti's P
  supermatrix.  The build that fills an
  :class:`~repro.integrals.store.ERIStore` lays out, before its first
  chunk, the canonical position of every view of every block's index
  orbit over flat ``(ij)`` pairs, and adds the weighted blocks it
  computes straight into them (:class:`SlotFill`), contracting none:
  ``P = 4 J' - K'`` and ``K'`` on one pattern.  The store writes them (a
  private store holds them), the filling build itself memory-maps the
  file (:func:`map_supermatrix`) into the store's one slot, and every
  build over that store, the filling one included, is sparse mat-vecs --
  two for an RHF's ``G = 2J - K``, four for J and K -- with no plan and no
  Schwarz matrix.

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
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.pairdata import ShellPairData, md_sweep, shell_families
from repro.obs import phase
from repro.obs.profile import PHASE_ERI, PHASE_GUARD, PHASE_INTEGRITY, PHASE_JK, PHASE_STORE_FILL
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
#: one sweep (1 MiB).  A bound on peak memory -- every other temporary of
#: a sweep scales with it -- not a speed knob: the sweep time is flat from
#: 2^17 to 2^22 (docs/PERFORMANCE.md, "Kernel hot path", "Chunk budget")
MAX_R_WORK = 1 << 17

#: hard cap on shell quartets per chunk (index/scatter array sizes)
MAX_CHUNK_QUARTETS = 8192

#: budget (float64 elements) of resolved integral blocks staged for one
#: contraction flush; a flush's temporaries are about twice its blocks
MAX_STAGE_WORK = 1 << 19

#: block elements a fill writes into their slots at once: its index
#: temporaries take 8 bytes an element, and the heap keeps what they peak at
SLOT_WORK = 1 << 14

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


@dataclass(eq=False)
class FamilyGroup:
    """The family quartets one family stage sweeps together: those of
    the classes sharing a family max L and primitive-pair counts."""

    #: summed max L of each family quartet's four families
    lmax: int
    #: primitive pairs of each family quartet's bra and ket
    npp: tuple[int, int]
    #: (nfq, 4) int32: per family quartet the shells of one of its rows
    quartets: np.ndarray
    #: (2, nfq): per family quartet its bra and ket pair's slot in the
    #: primitive tables (``ShellPairData.prims``; ``None``: no pair data)
    slots: np.ndarray | None = field(repr=False)

    def chunk_size(self) -> int:
        """Family quartets per sweep under the :data:`MAX_R_WORK` budget."""
        # the compact recursion holds C(L+4, 4) vectors per primitive quartet
        per_fq = math.prod(self.npp) * math.comb(self.lmax + 4, 4)
        return int(max(1, min(MAX_CHUNK_QUARTETS, MAX_R_WORK // per_fq)))


@dataclass(eq=False)
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
    #: the family group the rows sweep in, and per row its family
    #: quartet there (ascending: the rows are sorted by it)
    group: FamilyGroup = field(repr=False)
    fids: np.ndarray = field(repr=False)
    #: the plan's pair data, which the MD class kernel sweeps (``None``:
    #: a plan no MD sweep may run on, and no slots below)
    pair_cache: ShellPairData | None = field(repr=False)
    #: the bra's and the ket's pair class (``pair_cache.stacks``), and
    #: (2, nq) per row its bra and ket pair's slot in those stacks
    pair_classes: tuple[int, int] | None = field(repr=False)
    slots: np.ndarray | None = field(repr=False)
    #: plan row of this batch's first quartet (seeded faults address rows)
    row0: int = field(default=0, init=False)

    @property
    def nq(self) -> int:
        return int(self.quartets.shape[0])

    @property
    def cost(self) -> float:
        """Estimated primitive-quartet work (orders the plan's batches)."""
        return float(self.nq) * self.nprim * (self.lmax + 1) ** 4


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

    def stored_bytes(self, nbf: int) -> int:
        """Bound on a fill's bytes: 20 per position its terms fold into --
        every canonical element orbit of each row's quartet and of its
        exchange partners (AC|BD) and (AD|BC), a quartet counted once --
        and 8 per indptr row."""
        q = np.concatenate([b.quartets for b in self.batches] + [np.zeros((0, 4), int)])
        ns = int(q.max(initial=0)) + 1
        size = np.zeros(ns, np.int64)
        for b in self.batches:
            size[b.quartets] = b.dims

        def key(a, b, c, d):  # of the orbit of (ab|cd)
            bra, ket = (np.maximum(x, y) * ns + np.minimum(x, y) for x, y in ((a, b), (c, d)))
            return np.maximum(bra, ket) * ns * ns + np.minimum(bra, ket)

        a, b, c, d = q.T.astype(np.int64)
        keys = np.sort(np.concatenate([key(a, b, c, d), key(a, c, b, d), key(a, d, b, c)]))
        bra, ket = np.divmod(keys[np.diff(keys, prepend=-1) != 0], ns * ns)
        # a shell pair's function pairs, one per orbit where its shells are equal
        pb, pk = (np.where(x == y, size[x] * (size[x] + 1) // 2, size[x] * size[y])
                  for x, y in (np.divmod(bra, ns), np.divmod(ket, ns)))
        return 20 * int(np.where(bra == ket, pb * (pb + 1) // 2, pb * pk).sum()) + 8 * (nbf**2 + 2)

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
    head = qarr[heads]
    slots = None if pair_cache is None else pair_cache.sides(head, pair_cache.pslot)
    groups = [
        FamilyGroup(
            lmax=int(lmax_f[heads[lo]]), npp=(int(n_bra[heads[lo]]), int(n_ket[heads[lo]])),
            quartets=head[lo:hi].astype(np.int32),
            slots=None if slots is None else slots[:, lo:hi],
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
    for arbitrary tuples).  ``pair_cache`` expands (once) every pair the
    rows name, and each batch and family group gets its rows' slots into
    its stacks, one gather over the whole plan (``None``: a plan the MD
    kernel never sweeps).
    """
    if not isinstance(quartets, np.ndarray):
        quartets = list(quartets)
    qarr = np.asarray(quartets, dtype=np.int64).reshape(-1, 4)
    if pair_cache is not None:
        pair_cache.expand(qarr[:, 0::2].ravel(), qarr[:, 1::2].ravel())
    keys, fid, gcut, groups = _family_keys(basis, pair_cache, qarr)
    # rows by class, then family quartet (then canonical order)
    order = np.argsort(keys * gcut[-1] + fid, kind="stable")
    keys, fid, quartets = keys[order], fid[order], qarr[order]
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
    slots = classes = None
    if pair_cache is not None:
        slots = pair_cache.sides(quartets, pair_cache.slot)
        classes = pair_cache.sides(quartets[cuts[:-1]], pair_cache.klass).T.tolist()
    # per-class copies, not views: small arrays fill the heap's free holes
    # and the whole-plan arrays are released (scf_stored peak RSS -5 MB)
    batches, shells = [], [(s.l, s.pure, s.nbf, s.nprim) for s in basis.shells]
    for k, (lo, hi, g) in enumerate(zip(cuts[:-1].tolist(), cuts[1:].tolist(), group_of)):
        lkey, pure, dims, nprim = zip(*(shells[i] for i in quartets[lo].tolist()))
        batches.append(ClassBatch(
            lkey=lkey, pure=pure, dims=dims, lmax=sum(lkey), nprim=math.prod(nprim),
            quartets=quartets[lo:hi].copy(), weights=weights[lo:hi].copy(),
            pair_bases=bases[:, lo:hi].copy(),
            group=groups[g], fids=fid[lo:hi].copy(), pair_cache=pair_cache,
            pair_classes=None if slots is None else tuple(classes[k]),
            slots=None if slots is None else slots[:, lo:hi].copy(),
        ))
    by_cost = sorted(range(len(batches)), key=lambda k: -batches[k].cost)
    batches = [batches[k] for k in by_cost]
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
    first = chunk[0][0]
    fids = [batch.fids[rows] for batch, rows in chunk]
    fq, at = np.unique(np.concatenate(fids), return_inverse=True)
    at = np.split(at, np.cumsum([f.size for f in fids])[:-1])
    blocks = md_sweep(first.pair_cache, first.group, fq, [
        (batch, f, rows) for (batch, rows), f in zip(chunk, at)
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
    """A plan's integrals, folded, as two CSR matrices on one pattern over
    flat ``(ij)`` pairs.

    The six-block contraction is linear in D, so with ``d`` a flattened
    density it is ``Jt = M_J d + M_J^T d`` and ``Kt = M_K d + M_K^T d``
    where ``M_J[ab, cd] = g`` and ``M_K[ac, bd] + M_K[ad, bc] += g``
    (``g = w (ab|cd)``).  Both end in ``J = 2 (Jt + Jt^T)``, ``K = Kt +
    Kt^T`` over a symmetric D, so an entry may sit at any of the 8
    positions of its index orbit: :class:`SlotFill` sums each at the
    orbit's canonical one (Raffenetti's P supermatrix) -- each pair larger
    index first, the row the pair of the larger pair of shells (of one
    pair of shells, the larger pair) -- where both matrices share their
    pattern.  ``p = 4 J' - K'`` (``'``: folded)
    gives ``G = 2J - K``, what an RHF build needs, in two sparse
    mat-vecs; ``k = K'`` gives K, and ``J = (G + K) / 2``.  Row ``(a,
    x)`` holds only quartets whose first shell has ``a``.  A ready
    store's file holds the two (20 bytes per non-zero: two float64
    values, an int32 column), served memory-mapped from the store's one
    slot (``ERIStore.supermatrix``); a private store holds the filling
    build's there.
    """

    #: whether its segments were CRC-checked (``store.verify_reads``), or
    #: held since the fill (never read back from a medium)
    verified: bool
    p: sparse.csr_matrix
    k: sparse.csr_matrix

    @classmethod
    def of(cls, verified: bool, arrays: "Folded") -> "Supermatrix":
        """Of a fill's :class:`Folded` arrays, a row and a column per pair."""
        from scipy import sparse

        shape = (len(arrays.indptr) - 1,) * 2
        return cls(verified, *(
            sparse.csr_matrix((data, arrays.indices, arrays.indptr), shape=shape)
            for data in (arrays.p, arrays.k)
        ))

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.p.data, self.k.data, self.p.indices, self.p.indptr))

    def contract(self, dflat: np.ndarray, exchange: bool) -> tuple[np.ndarray, ...]:
        """Half-G and (``exchange``) half-K, ``(ndens, n*n)`` each, of a
        density stack: ``P d + P^T d`` and ``K' d + K'^T d``."""
        x = np.ascontiguousarray(dflat.T)
        return tuple(
            (m @ x + m.T @ x).T for m in ((self.p, self.k) if exchange else (self.p,))
        )


#: the views of a block, M_J's and then M_K's two, as axis orders: rows,
#: then columns
_VIEWS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


class Folded(NamedTuple):
    """A fill's :class:`Supermatrix` as its CSR arrays (what the store writes):
    the values of P and of K' on one pattern."""

    p: np.ndarray
    k: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _row_layout(size: np.ndarray, key: np.ndarray):
    """Where one segment's blocks of one matrix go, by their shells' keys
    ``(B * ns + C) * ns + D`` (rows of the segment's shell A and of B,
    columns of C and D), strictly increasing (else ``ValueError``): per
    block its start in its rows and its stride, per B the length of the
    rows ``(a, b)``.  Rows of one pair (A, B) share their columns: per
    column shell C, per ``c``, the functions of each (C, D) block in order
    of D -- so element ``(i, j, k, l)`` sits ``start + k * stride + l``
    into its row."""
    if (np.diff(key) <= 0).any():
        raise ValueError("a fill needs distinct canonical quartets")
    ns = len(size)
    rpc, d4 = np.divmod(key, ns)
    d4 = size[d4]
    width = size[rpc % ns] * d4
    before_w, before_d = np.cumsum(width) - width, np.cumsum(d4) - d4
    # runs of one (row shell, column shell), and of one row shell
    run_c = np.flatnonzero(np.diff(rpc, prepend=-1))
    rp = rpc[run_c] // ns
    new_rp = np.diff(rp, prepend=-1) != 0
    run_rp = run_c[new_rp]
    len_c, len_rp = (np.diff(r, append=len(key)) for r in (run_c, run_rp))
    before_d += np.repeat(before_w[run_c] - before_d[run_c], len_c)
    before_d -= np.repeat(before_w[run_rp], len_rp)
    rowlen = np.zeros(ns, np.int64)
    rowlen[rp[new_rp]] = np.add.reduceat(width, run_rp)
    return before_d, np.repeat(np.add.reduceat(d4, run_c), len_c), rowlen


def _targets(q: np.ndarray, view: int) -> tuple[np.ndarray, tuple]:
    """Per canonical quartet of ``q`` (rows of shells (A, B, C, D)) how
    its block's axes in ``view``'s order are reordered to its orbit's
    canonical shells -- each pair's larger shell first (A is at least C
    and D, so only the columns' pair can swap), then the larger pair --
    as a row of :data:`_TURNS` ``[view]``, and those four shells."""
    a, r, x, y = (q[:, v] for v in _VIEWS[view])
    hi, lo = np.maximum(x, y), np.minimum(x, y)
    turn = (a == hi) & (r < lo)  # the column pair is the larger
    return (x < y) + 2 * turn, (np.where(turn, hi, a), np.where(turn, lo, r),
                                np.where(turn, a, hi), np.where(turn, r, lo))


#: per view the four axis orders :func:`_targets` picks from
_TURNS = [np.array([(i, j, k, l), (i, j, l, k), (k, l, i, j), (l, k, i, j)])
          for i, j, k, l in _VIEWS]


class SlotFill:
    """The :class:`Supermatrix` of a plan's rows (all, or the strictly
    increasing ``rows``) as CSR arrays laid out before any block is
    computed: :meth:`write` adds each flush's weighted blocks into their
    folded positions, :meth:`folded` finishes P and K'.

    The layout holds the *target* of every view of every row: the block's
    orbit as a canonical quartet, whose elements the view's block fills one
    for one once its axes are reordered (:func:`_targets`).  Each target is
    laid out as M_J's blocks were: the rows ``(a, b)`` of one shell pair
    share their columns, written once into the pair's *pattern*, and layout
    and fold run a *segment* at a time, the rows ``(a, x)`` of one shell.
    A target's largest shell is its rows' first quartet's, so a segment's
    positions take terms only from the plan rows whose first shell it is.

    Sums come out the same in any row order (a CRC rescue's subset of
    rows included): a position holds one M_J term (from its own quartet)
    and at most two M_K terms, one from each of the two quartets whose
    exchange views share its orbit -- a quartet's two views that share one
    (``P = Q`` or ``M = N``) are summed before they are written -- and a
    sum of two terms is exact in either order.  A target whose equal shells repeat an orbit in its grid
    folds those repeats into one position in :meth:`folded`, in a fixed
    order.  The plan rows must be distinct quartets (else ``ValueError``).
    """

    def __init__(self, basis: BasisSet, plan: ClassPlan, rows: np.ndarray | None):
        self.basis, n, ns, nplan = basis, basis.nbf, basis.nshells, plan.nquartets
        size = np.diff(basis.offsets)
        q = np.concatenate([b.quartets for b in plan.batches] + [np.zeros((0, 4), int)],
                           dtype=np.min_scalar_type(ns), casting="unsafe")
        at = np.arange(nplan, dtype=np.int32) if rows is None else rows
        a, b, c, d = q[at].T
        if not ((a >= b) & (c >= d) & ((a > c) | (a == c) & (b >= d))).all():
            raise ValueError("a fill needs distinct canonical quartets")
        # the rows by segment (first shell); per view its rows: every row's
        # M_J view and first M_K view (both M_K views summed where they share
        # a target), the rest's second
        at = at[np.argsort(a, kind="stable")]
        qs = q[at]
        two = (qs[:, 0] != qs[:, 1]) & (qs[:, 2] != qs[:, 3])
        views = [(at, qs), (at, qs), (at[two], qs[two])]
        key = np.int32 if ns**4 < 2**31 else np.int64
        keys = [((w.astype(key) * ns + x) * ns + y) * ns + z
                for w, x, y, z in (_targets(vq, v)[1] for v, (_, vq) in enumerate(views))]
        cuts = [np.searchsorted(x[:, 0], np.arange(ns + 1)) for _, x in views]
        self.start = np.zeros((3, nplan), np.min_scalar_type(n * n))
        self.stride = np.zeros((3, nplan), np.min_scalar_type(n))
        self.width = np.zeros((ns, ns), np.int64)
        # per segment its targets' columns, once, into their shell pairs'
        # patterns (laid end to end), and its targets whose grids repeat an
        # orbit, folded in `folded`
        patterns, repeats = [], []
        for s in range(ns):  # a segment's targets come from its rows alone
            parts = [k[c[s]:c[s + 1]] for k, c in zip(keys, cuts)]
            # the targets, sorted, and each view's: a sort of the keys with
            # each one's place in their low bits
            k = np.concatenate(parts).astype(np.int64) - s * ns**3
            bits = len(k).bit_length()
            order = np.sort(k << bits | np.arange(len(k)))
            new = np.diff(order >> bits, prepend=-1) != 0
            order &= (1 << bits) - 1
            if np.count_nonzero(new[order < len(parts[0])]) < len(parts[0]):
                raise ValueError("a fill needs distinct canonical quartets")
            targets, mine, k[order] = k[order][new], order[new] < len(parts[0]), np.cumsum(new) - 1
            start, stride, self.width[s] = _row_layout(size, targets)
            for v, ((r, _), c, i) in enumerate(zip(
                    views, cuts, np.split(k, np.cumsum([len(p) for p in parts])[:-1]))):
                self.start[v, r[c[s]:c[s + 1]]], self.stride[v, r[c[s]:c[s + 1]]] = (
                    start[i], stride[i])
            y, z, w = targets // ns**2, targets // ns % ns, targets % ns
            # per column of a target no row's M_J view writes, the target and
            # its (z, w) in it
            cols = size[z] * size[w] * ~mine
            t = np.repeat(np.arange(len(y), dtype=np.int32), cols)
            zz, ww = np.divmod(np.arange(len(t)) - np.repeat(np.cumsum(cols) - cols, cols),
                               size[w[t]])
            pattern = np.empty(self.width[s].sum(), np.min_scalar_type(n * n))
            base = np.cumsum(self.width[s]) - self.width[s]
            pattern[base[y[t]] + start[t] + stride[t] * zz + ww] = (
                basis.offsets[z[t]] * n + basis.offsets[w[t]] + zz * n + ww)
            patterns.append(pattern)
            rep = (y == s) | (z == w) | (z == s) & (y == w)
            repeats.append(tuple(a.astype(np.min_scalar_type(max(ns, n * n))) for a in (
                np.stack([np.full(rep.sum(), s), y[rep], z[rep], w[rep]], axis=1),
                start[rep], stride[rep])))
        shell = np.repeat(np.arange(ns), size)
        self.rowptr = np.append(0, np.cumsum(self.width[shell[:, None], shell]))
        self.idx = np.int32 if max(self.rowptr[-1], n * n) < 2**31 else np.int64
        # per shell pair the slot of its first row and where its pattern
        # starts; per shell A the slots rows (a, .) take
        self.row0 = self.rowptr[basis.offsets[:-1, None] * n + basis.offsets[:-1]]
        self.base = np.cumsum(self.width).reshape(ns, ns) - self.width
        self.arow = self.width @ size
        self.pattern = np.concatenate(patterns)
        self.repeats = tuple(np.concatenate(r) for r in zip(*repeats))
        self.jk = None

    def write(self, flush: list[Chunk], parts: list[np.ndarray]) -> None:
        """Add one flush's weighted blocks ``w (ab|cd)``, one stack per
        member, into their positions, :data:`SLOT_WORK` elements at a time:
        a window across members is the only copy."""
        self._allocate()
        rows = np.concatenate([b.row0 + r for b, r in flush])
        q = np.concatenate([b.quartets[r] for b, r in flush])
        starts = np.cumsum([0] + [len(g) for g in parts])
        step = max(1, SLOT_WORK // math.prod(parts[0].shape[1:]))
        for lo in range(0, len(q), step):
            hi = min(lo + step, len(q))
            k0, k1 = np.searchsorted(starts, lo, "right") - 1, np.searchsorted(starts, hi)
            g = [p[max(lo - s, 0):hi - s] for p, s in zip(parts[k0:k1], starts[k0:k1])]
            qw, rw, gw = q[lo:hi], rows[lo:hi], g[0] if len(g) == 1 else np.concatenate(g)
            self._put(0, qw, rw, gw)
            # M_K's two views share a target where P = Q or M = N: the first
            # view then writes both, (ab|cd) + (ab|dc) or (ab|cd) + (ba|cd)
            cd, ab = qw[:, 2] == qw[:, 3], qw[:, 0] == qw[:, 1]
            g1 = gw.copy() if (cd | ab).any() else gw
            for same, axes in ((cd, (3, 4)), (ab & ~cd, (1, 2))):
                if same.any():
                    g1[same] += gw[same].swapaxes(*axes)
            self._put(1, qw, rw, g1)
            two = ~(ab | cd)
            self._put(2, qw[two], rw[two], gw[two])

    def _allocate(self) -> None:
        """The positions' M_J and M_K sums, once: by the first write, not
        beside the kernel's first stage."""
        if self.jk is None:
            self.jk = [np.zeros(self.rowptr[-1]) for _ in range(2)]

    def _put(self, view: int, q: np.ndarray, rows: np.ndarray, g: np.ndarray) -> None:
        """One view of same-shape blocks: M_J's values into their positions,
        M_K's added.  The block's axes, in its target's order, step over
        rows ``(a, .)``, rows ``(a, b)``, its stride and one position."""
        n, offsets = self.basis.nbf, self.basis.offsets
        if view:  # M_K's: the target's shells, and the axis order they take
            turn, x = _targets(q, view)
            x = np.stack(x, axis=1).astype(np.intp)
        else:  # M_J's blocks are their targets, in order
            x = q.astype(np.intp)
        pair = x[:, 0] * self.basis.nshells + x[:, 1]
        steps = np.stack([self.arow.take(x[:, 0]), self.width.take(pair),
                          self.stride[view].take(rows), np.ones(len(rows), np.intp)], axis=1)
        if view:
            np.put_along_axis(steps, _TURNS[view][turn], steps.copy(), axis=1)
        else:  # and write its columns into its shell pair's pattern
            s, u = np.arange(g.shape[3])[:, None], np.arange(g.shape[4])
            self.pattern[(self.base.take(pair) + self.start[0].take(rows))[:, None, None]
                         + steps[:, 2, None, None] * s + u] = (
                (offsets.take(x[:, 2]) * n + offsets.take(x[:, 3]))[:, None, None] + s * n + u)
        # per axis (m, 1, dim) steps; the slots are their outer sum
        a, b, c, d = (steps[:, i, None, None] * np.arange(dim) for i, dim in enumerate(g.shape[1:]))
        first = self.row0.take(pair) + self.start[view].take(rows)
        slots = ((first[:, None, None] + a.swapaxes(1, 2) + b)[..., None, None]
                 + (c.swapaxes(1, 2) + d)[:, None, None])
        if view:
            np.add.at(self.jk[1], slots.ravel(), g.ravel())
        else:
            self.jk[0][slots] = g

    def folded(self) -> Folded:
        """P and K' once every row is written: each target's repeated
        orbits folded into one position, ``P = 4 J' - K'`` in place, then
        both arrays' positions that are both zero squeezed out, segment by
        segment, and the columns written at their final size."""
        self._allocate()
        self.start = self.stride = None
        pf, kf = self.jk
        self._fold_repeats(pf, kf)
        pf *= 4.0
        pf -= kf
        n, offsets = self.basis.nbf, self.basis.offsets
        size = np.diff(offsets)
        shell = np.repeat(np.arange(len(size)), size)
        counts, z = np.zeros(n * n + 1, self.idx), 0
        indices = np.empty(len(pf), self.idx)
        for s, (r0, r1) in enumerate(zip(offsets[:-1] * n, offsets[1:] * n)):
            lo, hi = self.rowptr[r0], self.rowptr[r1]
            keep = (pf[lo:hi] != 0) | (kf[lo:hi] != 0)
            # per row its kept entries (a row of no entries starts where the next one does)
            full = r0 + np.flatnonzero(self.rowptr[r0 + 1:r1 + 1] > self.rowptr[r0:r1])
            if full.size:
                counts[full + 1] = np.add.reduceat(keep, self.rowptr[full] - lo, dtype=self.idx)
            for a in (pf, kf):
                kept = a[lo:hi][keep]
                a[z:z + len(kept)] = kept
            # rows (a, x) of shell s: x's columns are the pattern of (s, shell(x))
            length = self.width[s, shell]
            at = np.repeat(self.base[s, shell] - np.cumsum(length) + length, length)
            cols = np.tile(self.pattern[at + np.arange(len(at))], size[s])[keep]
            indices[z:z + len(cols)] = cols
            z += len(cols)
        self.jk = self.pattern = None
        for a in (pf, kf, indices):
            a.resize(z, refcheck=False)
        return Folded(pf, kf, indices, np.cumsum(counts, dtype=self.idx))

    def _fold_repeats(self, *sums: np.ndarray) -> None:
        """Each repeat of an orbit in a target's grid -- equal shells of a
        pair, or two equal pairs, give an orbit more than one element --
        added into the one whose pairs are in canonical order, in grid
        order, and zeroed, :data:`SLOT_WORK` elements at a time."""
        sh, start, stride = (a.astype(np.intp) for a in self.repeats)
        ns, size = self.basis.nshells, np.diff(self.basis.offsets)
        pair, dims = sh[:, 0] * ns + sh[:, 1], size[sh]
        first = self.row0.take(pair) + start
        steps = np.stack([self.arow[sh[:, 0]], self.width.take(pair), stride], axis=1)
        equal = np.stack([sh[:, 0] == sh[:, 1], sh[:, 2] == sh[:, 3],
                          (sh[:, 0] == sh[:, 2]) & (sh[:, 1] == sh[:, 3])], axis=1)
        count = dims.prod(axis=1)
        for chunk in np.array_split(np.arange(len(sh)), -(-count.sum() // SLOT_WORK) or 1):
            t = np.repeat(chunk, count[chunk])
            e = np.arange(len(t)) - np.repeat(np.cumsum(count[chunk]) - count[chunk], count[chunk])
            e, u = np.divmod(e, dims[t, 3])
            e, s = np.divmod(e, dims[t, 2])
            p, r = np.divmod(e, dims[t, 1])

            def slot(p, r, s, u):
                return first[t] + steps[t, 0] * p + steps[t, 1] * r + steps[t, 2] * s + u

            own = slot(p, r, s, u)
            pairs, ket, both = equal[t].T
            p, r = np.where(pairs, np.maximum(p, r), p), np.where(pairs, np.minimum(p, r), r)
            s, u = np.where(ket, np.maximum(s, u), s), np.where(ket, np.minimum(s, u), u)
            swap = both & ((p < s) | (p == s) & (r < u))
            p, r, s, u = (np.where(swap, b, a) for a, b in ((p, s), (r, u), (s, p), (u, r)))
            home = slot(p, r, s, u)
            moved = own != home
            for a in sums:
                np.add.at(a, home[moved], a[own[moved]])
                a[own[moved]] = 0.0


def _mapped_matrices(engine, store) -> Folded | None:
    """The store's :class:`Folded` arrays, memory-mapped, each segment that
    fails its check rebuilt from the rows of its shell in the plan at the
    manifest's tau, planned only then (CRC rescues): the fold keeps a
    segment's terms in it -- or ``None`` if a rebuilt segment does not fit
    its slot (another kernel's exact zeros)."""
    cuts, nnz = store.offsets_for()
    arrays = store.read_stacked()
    # a probe when CRCs are verified (gross of the check they replace)
    with phase(PHASE_INTEGRITY) if store.verify_reads else nullcontext():
        bad = np.flatnonzero(~store.verify_stacked(arrays))  # segment s: rows of shell s
    if bad.size:
        plan = engine.class_plan(store.manifest["tau"])
        first = np.concatenate([batch.quartets[:, 0] for batch in plan.batches])
        fresh, counts = _filled(engine, plan, np.flatnonzero(np.isin(first, bad)), None)
        engine.crc_rescues += counts["computed"]
        for s in bad:
            r0, r1, z0, z1 = cuts[s], cuts[s + 1], nnz[s], nnz[s + 1]
            lo, hi = fresh.indptr[r0], fresh.indptr[r1]
            if hi - lo != z1 - z0:
                return None
            for got, want in zip(arrays[:3], fresh[:3]):
                got[z0:z1] = want[lo:hi]
            arrays.indptr[r0:r1 + 1] = fresh.indptr[r0:r1 + 1] - lo + z0
    return arrays


def map_supermatrix(engine, store) -> Supermatrix | None:
    """The :class:`Supermatrix` of a ready ``store``: its matrices,
    memory-mapped, with every segment that fails its check rebuilt in
    place.  A rebuilt segment that does not fit its slot invalidates the
    store (``None``: the build fills it again).
    """
    arrays = _mapped_matrices(engine, store)
    if arrays is None:
        store.invalidate("a rebuilt segment does not fit its slot")
        return None
    return Supermatrix.of(store.verify_reads, arrays)


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
    if engine.finite_check:
        # the sentinel the guard arms: one test per chunk, per-row masks
        # only when it fails
        with phase(PHASE_GUARD):
            if not math.isfinite(sum([blocks.sum() for blocks in parts])):
                for (batch, rows), blocks in zip(chunk, parts):
                    bad = ~np.isfinite(blocks.reshape(len(blocks), -1)).all(axis=1)
                    if bad.any():
                        blocks[bad] = engine.rescue_rows(batch, rows[bad])
                        counts["rescued"] += int(bad.sum())
    return parts, counts


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


def _run_chunks(engine, dflat, chunks, fill, faults):
    """``chunks`` resolved in order, a ``jk_contraction`` phase around every
    flush: their source counts and half-J/half-K buffers -- or, writing each
    flush into a :class:`SlotFill`'s slots in ``store_fill``, ``None`` ones."""
    n = engine.basis.nbf
    jt = kt = None
    if fill is None:
        jt, kt = np.zeros_like(dflat), np.zeros_like(dflat)
    totals = dict.fromkeys(_COUNT_KEYS, 0)
    for flush, parts in _flushes(engine, chunks, faults, totals):
        with phase(PHASE_JK if fill is None else PHASE_STORE_FILL):
            if fill is None:
                g, bases = _weighted_flush(flush, parts)
                parts.clear()  # the stage's blocks: g holds them now
                _contract_blocks(jt, kt, dflat, n, g, bases)
            else:  # each member's blocks weighted in place, no stacked copy
                for (batch, rows), blocks in zip(flush, parts):
                    blocks *= batch.weights[rows].reshape(-1, 1, 1, 1, 1)
                fill.write(flush, parts)
                parts.clear()
    return jt, kt, totals


def _filled(engine, plan: ClassPlan, rows, faults):
    """The :class:`Folded` arrays of the plan ``rows`` (``None``: all),
    computed into a :class:`SlotFill` (a store fill, or a CRC rescue), and
    their source counts."""
    with phase(PHASE_STORE_FILL):
        fill = SlotFill(engine.basis, plan, rows)
    totals = _run_chunks(engine, None, plan.chunks(rows), fill, faults)[2]
    with phase(PHASE_STORE_FILL):
        return fill.folded(), totals


def _tally(engine, totals: dict, faults) -> None:
    """Fold a build's source counts into the engine's counters -- after its
    last chunk, so a build that raises leaves them untouched."""
    engine.quartets_computed += totals["computed"]
    engine.count_rescues(totals["rescued"])
    if faults is not None:
        engine.scf_faults.quartets_corrupted += totals["corrupted"]


def jk_from_plan(
    engine,
    density: np.ndarray,
    tau: float,
    g_only: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """J and K matrices over the engine's class plan at ``tau``
    (:meth:`~repro.integrals.engine.ERIEngine.class_plan`), one family
    sweep per chunk.

    ``density`` is one symmetric ``(n, n)`` matrix or a stack
    ``(k, n, n)`` of them; a stack shares one pass over the integrals
    and returns stacked ``(k, n, n)`` J and K.  With ``g_only`` (an RHF
    build) a served build returns ``(G, None)``, ``G = 2J - K`` from two
    mat-vecs over P, and a computed one J and K as ever.

    An attached ``engine.integral_store`` that is *ready* at ``tau``
    serves the build from the store's :class:`Supermatrix`, mapped by
    the first such build (:func:`map_supermatrix`; again only once the
    store's content changes or ``verify_reads`` is armed over an
    unverified mapping): nothing is planned and no chunk is walked.  A
    ready store at another tau, or one :func:`map_supermatrix` cannot
    patch, is invalidated and refilled.  A fill computes every row into a :class:`SlotFill` (:func:`_filled`),
    contracting none, and the store it finalizes at ``tau`` serves it.  A
    direct build is the six-block contraction of the rows
    :func:`density_rows` keeps at ``tau``.  Either walks its kernel chunks
    in plan order on the calling thread (:func:`_run_chunks`), recording
    one ``eri_quartets`` phase per kernel chunk and one ``jk_contraction``
    (direct) or ``store_fill`` (fill) phase per flush -- never per quartet.

    An attached ``engine.scf_faults`` state has this build's corruptions
    drawn here, per plan row and before any chunk is resolved; a victim on
    a row the density screen drops never fires.  A served build draws over
    the store's rows (the filling plan's), so later builds keep their
    ordinals.
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

    while True:
        if store is not None and store.ready:
            if (out := _served(engine, store, dflat, n, density, g_only)) is not None:
                return out
        plan = engine.class_plan(tau)
        if store is None or not store.filling or not plan.nquartets:
            break
        arrays, totals = _filled(engine, plan, None, faults)
        _tally(engine, totals, faults)
        with phase(PHASE_STORE_FILL):
            store.record_batch(arrays, plan.nquartets)
            del arrays  # written (or held) by the store: no copy beside its mapping
            store.finalize(tau)

    chunks = plan.chunks(density_rows(engine, plan, dflat.reshape(-1, n, n), tau))
    jt, kt, totals = _run_chunks(engine, dflat, chunks, None, faults)
    _tally(engine, totals, faults)
    return _symmetrized(jt, kt, n, density)


def _served(engine, store, dflat, n: int, density, g_only: bool):
    """J and K -- or ``(G, None)`` -- from ``store``'s mapped slot
    (:func:`map_supermatrix`), or ``None``."""
    sm = store.supermatrix
    if sm is None or store.verify_reads and not sm.verified:
        # dropped first: a mapping that fails (MemoryError, an
        # interrupt) leaves no half-built or stale matrix behind
        store.supermatrix = None
        sm = store.supermatrix = map_supermatrix(engine, store)
    if sm is not None:
        with phase(PHASE_JK):
            halves = sm.contract(dflat, exchange=not g_only)
        engine.quartets_served_from_store += store.nblocks
        # G = Gt + Gt^T, K = Kt + Kt^T, and J = (G + K) / 2
        g, *k = (_shaped(h + h.transpose(0, 2, 1), density)
                 for h in (half.reshape(-1, n, n) for half in halves))
        return (g, None) if g_only else (0.5 * (g + k[0]), k[0])


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
    return _shaped(j, density), _shaped(k, density)


def _shaped(stack: np.ndarray, density) -> np.ndarray:
    """A ``(k, n, n)`` stack, or its one matrix for an ``(n, n)`` density."""
    return stack if np.ndim(density) == 3 else stack[0]
