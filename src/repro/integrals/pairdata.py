"""Shell-pair data caching and the two-stage McMurchie-Davidson ERI kernel.

GTFock's central performance idea (Sec II-C/III of the paper) is that
everything density-*independent* about a shell pair -- Gaussian product
exponents, product centers, contraction prefactors, and the Hermite
E-coefficient tensors -- should be computed *once per basis* and then
amortized over every quartet that pair participates in:

* :class:`PairData` / :class:`ShellPairData` -- the per-pair primitive
  records stacked into contiguous ndarrays, built lazily (a class of
  pairs at a time) and cached per ordered shell-pair index so each pair
  is expanded exactly once.
* **Exponent families** (:func:`shell_families`) -- the shells on one
  centre with one exponent vector, like the s and p of a Pople ``SP``
  entry.  Every member quartet of a *family quartet* has the same
  primitive ``p``, ``P``, Boys arguments and Hermite integrals ``R``;
  only E and the contraction coefficients tell the members apart.
* :func:`md_sweep` -- the kernel that flattens the bra x ket primitive
  loops of any number of quartets, in two stages: a *family stage* (one
  ``boys_array`` / ``r_tensor_batch`` per family quartet at the families'
  max L, coefficient-free: :class:`FamilyOperands`) and a *member stage*
  (per class one Hermite-row gather and two batched matmuls with E, into
  which ``c_a c_b`` is folded: :class:`SweepOperands`).  It is the
  class-batched Fock build's kernel (:mod:`repro.integrals.class_batch`),
  one sweep per family chunk.

Numerics agree with the per-primitive MD oracle
(``tests/reference_eri.py``) and the batched Obara-Saika kernel
(:mod:`repro.integrals.eri_os`) up to floating-point summation order
(far below 1e-12; see tests/test_pairdata.py and tests/test_eri.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    """Stacked density-independent primitive data for one shell pair.

    All arrays share the primitive-pair axis of length
    ``npp = nprim_a * nprim_b``.  A *stack* (:func:`stack_pairs`) is the
    same record with one more leading axis on every array -- the unique
    shell pairs of one angular-momentum class, which must therefore
    share ``(la, lb, npp)`` -- so a whole class batch gathers its bra (or
    ket) primitive data with one fancy-index read.
    """

    la: int
    lb: int
    #: contraction coefficient products ``c_a c_b``, shape (..., npp)
    coef: np.ndarray
    #: composite exponents ``p = a + b``, shape (..., npp)
    p: np.ndarray
    #: Gaussian product centers ``P``, shape (..., npp, 3)
    P: np.ndarray
    #: E tensors stacked, shape (..., npp, ncart_a, ncart_b, nherm)
    E: np.ndarray
    #: ``c_a c_b E`` on normalized basis functions, (..., npp, ab, nherm):
    #: what the ERI kernel's member stage contracts
    basis_e: np.ndarray
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
        """Pair slots of a stack."""
        return int(self.p.shape[0])

    @property
    def nbytes(self) -> int:
        """Memory held by the stacked arrays."""
        return sum(
            arr.nbytes for arr in (self.coef, self.p, self.P, self.E,
                                   self.basis_e, self.tt, self.uu, self.vv)
        )


#: a :class:`PairData` with the leading pair-slot axis
StackedPairs = PairData


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


def _expand_pairs(shells: list[Shell], ij: list[tuple[int, int]]) -> list[PairData]:
    """Expand shell pairs ``ij`` that share ``(la, lb, nprim_a, nprim_b,
    pure_a, pure_b)`` into their stacked primitive records, all at once.

    Per pair the arithmetic is elementwise the one-pair expansion's (the
    E tensor of each primitive pair lands in one slice of a
    ``(npp, ncart_a, ncart_b, nherm)`` array); the records are views
    into the group's arrays.
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
    E = E.reshape(len(ij), npp, *E.shape[1:])
    basis_e = basis_e.reshape(len(ij), npp, *basis_e.shape[1:])
    return [
        PairData(la=la, lb=lb, coef=coef[k], p=p[k], P=P[k], E=E[k],
                 basis_e=basis_e[k], tt=tt, uu=uu, vv=vv)
        for k in range(len(ij))
    ]


class ShellPairData:
    """Per-basis cache of :class:`PairData`, built once per ordered pair.

    Keys are ordered shell-index pairs ``(i, j)`` -- the E tensor of
    ``(j, i)`` is not a plain transpose of ``(i, j)``, so the two
    orientations are cached independently.  With the canonical-quartet
    ordering used by every Fock builder, only the ``i >= j`` half is ever
    materialized in practice.
    """

    def __init__(self, basis: BasisSet):
        self.basis = basis
        self._pairs: dict[tuple[int, int], PairData] = {}
        #: number of pair expansions actually performed (tests/metrics)
        self.pairs_built = 0

    def get_many(self, ij: list[tuple[int, int]]) -> list[PairData]:
        """The stacked pair data for shell pairs ``ij``, each computed
        once: the missing ones are expanded a class at a time, in one
        ``pairdata_build`` phase."""
        missing = [key for key in dict.fromkeys(ij) if key not in self._pairs]
        if missing:
            from repro.obs import phase
            from repro.obs.profile import PHASE_PAIRDATA

            shells = self.basis.shells
            classes: dict[tuple, list[tuple[int, int]]] = {}
            for i, j in missing:
                si, sj = shells[i], shells[j]
                key = (si.l, sj.l, si.nprim, sj.nprim, si.pure, sj.pure)
                classes.setdefault(key, []).append((i, j))
            with phase(PHASE_PAIRDATA):
                for members in classes.values():
                    self._pairs.update(zip(members, _expand_pairs(shells, members)))
            self.pairs_built += len(missing)
        return [self._pairs[key] for key in ij]

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def nbytes(self) -> int:
        """Total memory held by all cached pair records."""
        return sum(d.nbytes for d in self._pairs.values())


@functools.lru_cache(maxsize=None)
def _basis_map(la: int, pure_a: bool, lb: int, pure_b: bool) -> np.ndarray:
    """``(ab, ncart_a ncart_b)``: a pair's Cartesian products to its basis
    functions (:func:`cartesian_to_basis` on both axes)."""
    return np.kron(cartesian_to_basis(la, pure_a), cartesian_to_basis(lb, pure_b))


def stack_pairs(records: list[PairData]) -> StackedPairs:
    """Stack class-uniform (same ``la``, ``lb`` and primitive-pair count)
    :class:`PairData` records along a new leading pair-slot axis."""
    first = records[0]
    for rec in records[1:]:
        if (rec.la, rec.lb, rec.npp) != (first.la, first.lb, first.npp):
            raise ValueError("stack_pairs requires class-uniform pairs")
    return PairData(
        la=first.la,
        lb=first.lb,
        coef=np.array([r.coef for r in records]),
        p=np.array([r.p for r in records]),
        P=np.array([r.P for r in records]),
        E=np.array([r.E for r in records]),
        basis_e=np.array([r.basis_e for r in records]),
        tt=first.tt,
        uu=first.uu,
        vv=first.vv,
    )


def _pair_slots(quartets: np.ndarray, ns: int):
    """Per side of ``quartets`` (bra, ket): slots into its unique
    ``(i, j)`` shell pairs, and those pairs."""
    for cols in (quartets[:, :2], quartets[:, 2:]):
        keys, slots = np.unique(cols[:, 0] * ns + cols[:, 1], return_inverse=True)
        yield slots, list(zip(*(v.tolist() for v in divmod(keys, ns))))


@dataclass(frozen=True)
class FamilyOperands:
    """What the family stage of :func:`md_sweep` reads: per family-pair
    slot the primitive exponents ``(npairs, npp)`` and product centres
    ``(3, npairs, npp)``, per family quartet its bra and ket slot.  Every
    member shell pair of a family pair gives the same values."""

    bra_p: np.ndarray
    bra_P: np.ndarray
    bra_slots: np.ndarray
    ket_p: np.ndarray
    ket_P: np.ndarray
    ket_slots: np.ndarray

    @classmethod
    def build(cls, pairs: ShellPairData, quartets: np.ndarray) -> "FamilyOperands":
        """Operands for family quartets given as one member row each."""
        (bs, bra), (ks, ket) = _pair_slots(quartets, pairs.basis.nshells)
        records = pairs.get_many(bra + ket)
        sides = []
        for slots, side in ((bs, records[:len(bra)]), (ks, records[len(bra):])):
            P = np.moveaxis(np.array([r.P for r in side]), -1, 0)
            sides += [np.array([r.p for r in side]), P.copy(), slots]
        return cls(*sides)


@dataclass(frozen=True)
class SweepOperands:
    """What the member stage of :func:`md_sweep` reads of one class."""

    #: rows of the family stage's compact Hermite tensor (at the family
    #: max L) at (tuv)_bra + (tuv)_ket, flattened (nherm_bra * nherm_ket,)
    rrows: np.ndarray
    #: per pair slot, ``c_a c_b E`` on normalized basis functions as
    #: matmul operands: (npairs, ab, herm x prim) and, with the ket sign
    #: (-1)^{t+u+v} folded in, (npairs, herm x prim, cd)
    bra_e: np.ndarray
    ket_e: np.ndarray
    #: per row, its bra and ket pair slot
    bra_slots: np.ndarray
    ket_slots: np.ndarray

    @classmethod
    def build(
        cls, pairs: ShellPairData, quartets: np.ndarray, lmax: int
    ) -> "SweepOperands":
        """Operands for one class's rows ``quartets``, swept in a family
        stage at ``lmax`` (``PairData.basis_e`` for E)."""
        (bs, bra), (ks, ket) = _pair_slots(quartets, pairs.basis.nshells)
        records = pairs.get_many(bra + ket)
        hb, hk = records[0], records[len(bra)]
        sign = (-1.0) ** (hk.tt + hk.uu + hk.vv)  # ket side; E is (pair, prim, ab, herm)
        eb = np.array([r.basis_e for r in records[:len(bra)]])
        ek = np.array([r.basis_e for r in records[len(bra):]]) * sign
        return cls(
            rrows=hermite_lookup(lmax)[
                hb.tt[:, None] + hk.tt, hb.uu[:, None] + hk.uu, hb.vv[:, None] + hk.vv
            ].ravel(),
            bra_e=eb.transpose(0, 2, 3, 1).reshape(len(eb), eb.shape[2], -1),
            ket_e=ek.transpose(0, 3, 1, 2).reshape(len(ek), -1, ek.shape[2]),
            bra_slots=bs, ket_slots=ks,
        )


def md_sweep(
    lmax: int, fam: FamilyOperands, fq: np.ndarray, members: list
) -> list[np.ndarray]:
    """ERI blocks ``(nrows, ab, cd)`` over basis functions of every member
    of one family sweep.

    *Family stage*: one ``r_tensor_batch`` at ``lmax`` over every
    primitive quartet of the family quartets ``fq``, carrying the
    prefactor ``2 pi^{5/2} / (p q sqrt(p + q))``.  *Member stage*, per
    member ``(ops, f, rows)`` -- class rows ``rows`` whose family quartets
    sit at positions ``f`` of ``fq``: one 2-D gather of the member's
    Hermite rows, then ``sum_{x,y,i,j} Eb R Ek`` as two batched matmuls
    ``(ab, ix) @ (ix, jy) @ (jy, cd)``.  A row's block depends only on its
    family quartet, so a row recomputed alone is bitwise the row of a
    full sweep.
    """
    fbs, fks = fam.bra_slots[fq], fam.ket_slots[fq]
    pb = fam.bra_p[fbs][:, :, None]
    qk = fam.ket_p[fks][:, None, :]
    nf, nb, nk = pb.shape[0], pb.shape[1], qk.shape[2]
    psum = pb + qk
    pq = pb * qk
    pref = _TWO_PI_52 / (pq * np.sqrt(psum))
    alpha = np.divide(pq, psum, out=psum)
    pq_vec = fam.bra_P[:, fbs, :, None] - fam.ket_P[:, fks, None, :]
    r = r_tensor_batch(
        lmax, alpha.ravel(), pq_vec.reshape(3, -1).T, pref.ravel()
    ).reshape(-1, nb * nk)  # rows: (hermite, family quartet)
    out = []
    for ops, f, rows in members:
        # one row gather, one transpose: (hb, hk, q, x, y) -> (q, hb x, hk y)
        hb = ops.bra_e.shape[2] // nb
        rmat = (
            np.take(r, (ops.rrows[:, None] * nf + f).ravel(), axis=0)
            .reshape(hb, -1, f.size, nb, nk)
            .transpose(2, 0, 3, 1, 4)
            .reshape(f.size, hb * nb, -1)
        )
        bra_e, ket_e = ops.bra_e[ops.bra_slots[rows]], ops.ket_e[ops.ket_slots[rows]]
        out.append(np.matmul(np.matmul(bra_e, rmat), ket_e))
    return out
