"""Shell-pair data and the two-stage McMurchie-Davidson ERI kernel.

GTFock's central performance idea (Sec II-C/III of the paper) is that
everything density-*independent* about a shell pair -- Gaussian product
exponents, product centers, contraction prefactors, and the Hermite
E-coefficient tensors -- should be computed *once per basis* and then
amortized over every quartet that pair participates in:

* :class:`ShellPairData` -- per basis, one :class:`PairData` stack per
  *pair class* (the ordered shell pairs sharing ``(la, lb, pure_a,
  pure_b, npp)``, everything that fixes their array shapes) and a shell
  pair -> slot table.  Pairs are expanded lazily, on first use, each
  once; a class plan carries every row's slots, so the kernel gathers
  straight from the stacks.
* **Exponent families** (:func:`shell_families`) -- the shells on one
  centre with one exponent vector, like the s and p of a Pople ``SP``
  entry.  Every member quartet of a *family quartet* has the same
  primitive ``p``, ``P``, Boys arguments and Hermite integrals ``R``;
  only E and the contraction coefficients tell the members apart.
* :func:`md_sweep` -- the kernel that flattens the bra x ket primitive
  loops of any number of quartets, in two stages: a *family stage* (one
  ``boys_array`` / ``r_tensor_batch`` per family quartet at the families'
  max L, coefficient-free, over the primitive tables
  :attr:`ShellPairData.prims`) and a *member stage* (per class one
  Hermite-row gather and two batched matmuls with E, into which
  ``c_a c_b`` is folded: :attr:`PairData.bra_e` / :attr:`PairData.ket_e`).
  It is the class-batched Fock build's kernel
  (:mod:`repro.integrals.class_batch`), one sweep per family chunk.

Numerics agree with the per-primitive MD oracle
(``tests/reference_eri.py``) and the batched Obara-Saika kernel
(:mod:`repro.integrals.eri_os`) up to floating-point summation order
(far below 1e-12; see tests/test_pairdata.py and tests/test_eri.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell, cartesian_components
from repro.integrals.hermite import (
    e_coefficients,
    hermite_index,
    hermite_lookup,
    r_tensor_batch,
)
from repro.integrals.spherical import cartesian_to_basis

_TWO_PI_52 = 2.0 * math.pi**2.5


@dataclass(frozen=True)
class PairData:
    """The stacked density-independent primitive data of one pair class.

    Every per-pair array has a leading pair-slot axis of length
    ``npairs``, then the primitive-pair axis of length ``npp = nprim_a *
    nprim_b`` (a-major per pair).
    """

    la: int
    lb: int
    #: contraction coefficient products ``c_a c_b``, shape (npairs, npp)
    coef: np.ndarray
    #: composite exponents ``p = a + b``, shape (npairs, npp)
    p: np.ndarray
    #: Gaussian product centers ``P``, shape (npairs, npp, 3)
    P: np.ndarray
    #: E tensors, shape (npairs, npp, ncart_a, ncart_b, nherm)
    E: np.ndarray
    #: ``c_a c_b E`` on normalized basis functions as the kernel's member
    #: stage contracts it: (npairs, ab, herm x prim) on the bra side and,
    #: with the ket sign (-1)^{t+u+v} folded in, (npairs, herm x prim, ab)
    bra_e: np.ndarray
    ket_e: np.ndarray
    #: flattened Hermite (t, u, v) indices, each shape (nherm,)
    tt: np.ndarray
    uu: np.ndarray
    vv: np.ndarray

    @property
    def npp(self) -> int:
        """Number of primitive pairs (per shell pair)."""
        return int(self.p.shape[-1])

    @property
    def npairs(self) -> int:
        """Pair slots of the stack."""
        return int(self.p.shape[0])

    def take(self, slots: np.ndarray) -> "PairData":
        """The stack of the pairs at ``slots``, in that order."""
        return replace(self, **{k: getattr(self, k)[slots] for k in _PER_PAIR})


#: the :class:`PairData` arrays with a pair-slot axis
_PER_PAIR = ("coef", "p", "P", "E", "bra_e", "ket_e")


def shell_families(basis: BasisSet) -> np.ndarray:
    """The exponent family of every shell, numbered in order of first
    appearance: shells share a family iff they sit on one centre with one
    exponent vector (bitwise), so their primitive pairs share ``p``, ``P``
    and with them the Boys arguments of every quartet."""
    ids: dict[tuple[bytes, bytes], int] = {}
    return np.array([
        ids.setdefault((sh.center.tobytes(), sh.exps.tobytes()), len(ids))
        for sh in basis.shells
    ], dtype=np.int64)


def _expand_pairs(shells: list[Shell], ij: list[tuple[int, int]]) -> PairData:
    """Expand shell pairs ``ij`` that share ``(la, lb, nprim_a, nprim_b,
    pure_a, pure_b)`` into one stack, all at once.

    Per pair the arithmetic is elementwise the one-pair expansion's (the
    E tensor of each primitive pair lands in one slice of a
    ``(npp, ncart_a, ncart_b, nherm)`` array).
    """
    sh_a, sh_b = shells[ij[0][0]], shells[ij[0][1]]
    la, lb = sh_a.l, sh_b.l
    hidx = np.array(hermite_index(la + lb)).reshape(-1, 3)
    tt, uu, vv = hidx.T.copy()
    (ax, ay, az), (bx, by, bz) = (
        np.array(cartesian_components(l)).reshape(-1, 3).T for l in (la, lb)
    )
    A, B = (np.array([shells[k[side]].center for k in ij]) for side in (0, 1))
    ea, eb = (np.array([shells[k[side]].exps for k in ij]) for side in (0, 1))
    ca, cb = (np.array([shells[k[side]].norm_coefs for k in ij]) for side in (0, 1))
    # all primitive pairs of every shell pair at once, a-major per pair
    na, nb = sh_a.nprim, sh_b.nprim
    a = np.repeat(ea, nb, axis=1)
    b = np.tile(eb, (1, na))
    coef = np.repeat(ca, nb, axis=1) * np.tile(cb, (1, na))
    p = a + b
    P = (a[..., None] * A[:, None] + b[..., None] * B[:, None]) / p[..., None]
    npp = na * nb
    ex, ey, ez = (
        e_coefficients(la, lb, a.ravel(), b.ravel(), np.repeat(A[:, d] - B[:, d], npp))
        for d in range(3)
    )
    E = np.ascontiguousarray(np.moveaxis(
        ex[ax[:, None, None], bx[None, :, None], tt[None, None, :]]
        * ey[ay[:, None, None], by[None, :, None], uu[None, None, :]]
        * ez[az[:, None, None], bz[None, :, None], vv[None, None, :]],
        -1, 0,
    ))
    to_basis = _basis_map(la, sh_a.pure, lb, sh_b.pure)
    basis_e = np.matmul(to_basis, E.reshape(p.size, -1, tt.size)) * coef.reshape(-1, 1, 1)
    basis_e = basis_e.reshape(len(ij), npp, *basis_e.shape[1:])  # (pair, prim, ab, herm)
    ket_e = basis_e * (-1.0) ** (tt + uu + vv)
    return PairData(
        la=la, lb=lb, coef=coef, p=p, P=P, E=E.reshape(len(ij), npp, *E.shape[1:]),
        bra_e=basis_e.transpose(0, 2, 3, 1).reshape(len(ij), basis_e.shape[2], -1),
        ket_e=ket_e.transpose(0, 3, 1, 2).reshape(len(ij), -1, basis_e.shape[2]),
        tt=tt, uu=uu, vv=vv,
    )


class ShellPairData:
    """Per-basis pair data: one :class:`PairData` stack per pair class,
    each ordered shell pair expanded once, on first use.

    ``(i, j)`` and ``(j, i)`` are distinct pairs -- the E tensor of
    ``(j, i)`` is not a plain transpose of ``(i, j)`` -- but with the
    canonical-quartet ordering used by every Fock builder only the
    ``i >= j`` half is ever expanded in practice.  Beside the class stacks
    it keeps, per primitive-pair count, the family stage's primitive
    table: every expanded pair's ``p`` and ``P``.
    """

    def __init__(self, basis: BasisSet):
        self.basis = basis
        ns = basis.nshells
        #: per ordered shell pair: its pair class (an index into
        #: ``stacks``), its slot in that stack and its slot in the
        #: primitive table of its ``npp`` (``-1``: not expanded yet)
        self.klass = np.full((ns, ns), -1, dtype=np.int32)
        self.slot = np.full((ns, ns), -1, dtype=np.int32)
        self.pslot = np.full((ns, ns), -1, dtype=np.int32)
        self.stacks: list[PairData] = []
        #: npp -> ``p`` (npairs, npp) and ``P`` (3, npairs, npp) of every
        #: expanded pair with ``npp`` primitive pairs
        self.prims: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._classes: dict[tuple, int] = {}
        #: number of pair expansions actually performed (tests/metrics)
        self.pairs_built = 0

    def expand(self, i: np.ndarray, j: np.ndarray) -> None:
        """Expand the ordered shell pairs ``(i[k], j[k])`` not expanded yet,
        one group of ``(la, lb, nprim_a, nprim_b, pure_a, pure_b)`` at a
        time, in one ``pairdata_build`` phase, each appended to its class
        stack and its primitive table."""
        ns = self.basis.nshells
        keys = np.asarray(i, dtype=np.int64) * ns + np.asarray(j, dtype=np.int64)
        missing = np.unique(keys[self.klass.ravel()[keys] < 0])
        if not missing.size:
            return
        from repro.obs import phase
        from repro.obs.profile import PHASE_PAIRDATA

        shells = self.basis.shells
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for a, b in zip(*(v.tolist() for v in divmod(missing, ns))):
            sa, sb = shells[a], shells[b]
            groups.setdefault((sa.l, sb.l, sa.pure, sb.pure, sa.nprim, sb.nprim), []).append((a, b))
        with phase(PHASE_PAIRDATA):
            for key, members in groups.items():
                self._append(key[:4] + (key[4] * key[5],), members,
                             _expand_pairs(shells, members))
        self.pairs_built += missing.size

    def _append(self, key: tuple, members: list, new: PairData) -> None:
        """File the freshly expanded stack ``new`` of ``members`` under its
        class ``key`` and its primitive table."""
        a, b = np.array(members).T
        k = self._classes.setdefault(key, len(self.stacks))
        if k == len(self.stacks):
            self.stacks.append(new.take(slice(0, 0)))
        old = self.stacks[k]
        self.stacks[k] = replace(old, **{
            name: np.concatenate([getattr(old, name), getattr(new, name)]) for name in _PER_PAIR
        })
        self.klass[a, b], self.slot[a, b] = k, old.npairs + np.arange(new.npairs)
        p, P = self.prims.get(new.npp, (new.p[:0], np.empty((3, 0, new.npp))))
        self.pslot[a, b] = len(p) + np.arange(new.npairs)
        self.prims[new.npp] = (
            np.concatenate([p, new.p]),
            np.concatenate([P, np.moveaxis(new.P, -1, 0)], axis=1),
        )

    @staticmethod
    def sides(quartets: np.ndarray, table: np.ndarray) -> np.ndarray:
        """(2, nq): the entries of a pair table (``klass``, ``slot`` or
        ``pslot``) of each quartet's bra and ket pair."""
        return np.stack([table[quartets[:, 0], quartets[:, 1]],
                         table[quartets[:, 2], quartets[:, 3]]])


@functools.lru_cache(maxsize=None)
def _basis_map(la: int, pure_a: bool, lb: int, pure_b: bool) -> np.ndarray:
    """``(ab, ncart_a ncart_b)``: a pair's Cartesian products to its basis
    functions (:func:`cartesian_to_basis` on both axes)."""
    return np.kron(cartesian_to_basis(la, pure_a), cartesian_to_basis(lb, pure_b))


@functools.lru_cache(maxsize=None)
def _hermite_rows(lbra: int, lket: int, lmax: int) -> np.ndarray:
    """Rows of the compact Hermite tensor at ``lmax`` at (tuv)_bra +
    (tuv)_ket, flattened ``(nherm_bra * nherm_ket,)``."""
    (bt, bu, bv), (kt, ku, kv) = (
        np.array(hermite_index(l)).reshape(-1, 3).T for l in (lbra, lket)
    )
    return hermite_lookup(lmax)[
        bt[:, None] + kt, bu[:, None] + ku, bv[:, None] + kv
    ].ravel()


def md_sweep(
    pairs: ShellPairData, group, fq: np.ndarray, members: list
) -> list[np.ndarray]:
    """ERI blocks ``(nrows, ab, cd)`` over basis functions of every member
    of one family sweep.

    *Family stage*: one ``r_tensor_batch`` at the family group's ``lmax``
    over every primitive quartet of its family quartets ``fq``, carrying
    the prefactor ``2 pi^{5/2} / (p q sqrt(p + q))``; ``p`` and ``P`` are
    gathered from the primitive tables at the group's slots.  *Member
    stage*, per member ``(batch, f, rows)`` -- class rows ``rows`` whose
    family quartets sit at positions ``f`` of ``fq``: one 2-D gather of
    the member's Hermite rows, then ``sum_{x,y,i,j} Eb R Ek`` as two
    batched matmuls ``(ab, ix) @ (ix, jy) @ (jy, cd)``, E gathered from
    the class stacks at the batch's slots.  A row's block depends only on
    its family quartet, so a row recomputed alone is bitwise the row of a
    full sweep.
    """
    (bra_p, bra_P), (ket_p, ket_P) = (pairs.prims[n] for n in group.npp)
    fbs, fks = group.slots[:, fq]
    pb = bra_p[fbs][:, :, None]
    qk = ket_p[fks][:, None, :]
    nf, nb, nk = pb.shape[0], pb.shape[1], qk.shape[2]
    psum = pb + qk
    pq = pb * qk
    pref = _TWO_PI_52 / (pq * np.sqrt(psum))
    alpha = np.divide(pq, psum, out=psum)
    pq_vec = bra_P[:, fbs, :, None] - ket_P[:, fks, None, :]
    r = r_tensor_batch(
        group.lmax, alpha.ravel(), pq_vec.reshape(3, -1).T, pref.ravel()
    ).reshape(-1, nb * nk)  # rows: (hermite, family quartet)
    out = []
    for batch, f, rows in members:
        bra, ket = (pairs.stacks[k] for k in batch.pair_classes)
        # one row gather, one transpose: (hb, hk, q, x, y) -> (q, hb x, hk y)
        hb = bra.tt.size
        rrows = _hermite_rows(bra.la + bra.lb, ket.la + ket.lb, group.lmax)
        rmat = (
            np.take(r, (rrows[:, None] * nf + f).ravel(), axis=0)
            .reshape(hb, -1, f.size, nb, nk)
            .transpose(2, 0, 3, 1, 4)
            .reshape(f.size, hb * nb, -1)
        )
        bra_e, ket_e = bra.bra_e[batch.slots[0, rows]], ket.ket_e[batch.slots[1, rows]]
        out.append(np.matmul(np.matmul(bra_e, rmat), ket_e))
    return out
