"""The per-class operand stacking the pair-class stacks replaced: the
oracle the production kernel's blocks are checked against bitwise
(tests/test_pairdata.py).

Before the pair data was kept as one stack per pair class, every class
of a plan stacked its own copy of its unique bra and ket pairs' records
on its first sweep (:class:`SweepOperands`, with ``np.unique`` over its
rows), and every family group the ``p`` / ``P`` of its family pairs
(:class:`FamilyOperands`); :func:`md_sweep` read those copies.  The pair
records here come from the one-pair expansion (``reference_pairdata``),
bitwise the production expansion's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from reference_pairdata import OnePair, build_pair_data

from repro.integrals.hermite import hermite_lookup, r_tensor_batch

_TWO_PI_52 = 2.0 * math.pi**2.5


def stack_pairs(records: list[OnePair]) -> OnePair:
    """Stack class-uniform (same ``la``, ``lb`` and primitive-pair count)
    records along a new leading pair-slot axis."""
    first = records[0]
    for rec in records[1:]:
        if (rec.la, rec.lb, rec.npp) != (first.la, first.lb, first.npp):
            raise ValueError("stack_pairs requires class-uniform pairs")
    return OnePair(
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


def pair_slots(quartets: np.ndarray, ns: int):
    """Per side of ``quartets`` (bra, ket): slots into its unique
    ``(i, j)`` shell pairs, and those pairs."""
    for cols in (quartets[:, :2], quartets[:, 2:]):
        keys, slots = np.unique(cols[:, 0] * ns + cols[:, 1], return_inverse=True)
        yield slots, list(zip(*(v.tolist() for v in divmod(keys, ns))))


def records(basis, pairs) -> list[OnePair]:
    shells = basis.shells
    return [build_pair_data(shells[i], shells[j]) for i, j in pairs]


def class_stacks(basis, quartets: np.ndarray):
    """A class's unique bra / ket pair data stacked, and per-row slots
    into the two stacks."""
    (bra_slots, bra_pairs), (ket_slots, ket_pairs) = pair_slots(quartets, basis.nshells)
    bra = stack_pairs(records(basis, bra_pairs))
    ket = stack_pairs(records(basis, ket_pairs))
    return bra, ket, bra_slots, ket_slots


@dataclass(frozen=True)
class FamilyOperands:
    """What the family stage of :func:`md_sweep` reads: per family-pair
    slot the primitive exponents ``(npairs, npp)`` and product centres
    ``(3, npairs, npp)``, per family quartet its bra and ket slot."""

    bra_p: np.ndarray
    bra_P: np.ndarray
    bra_slots: np.ndarray
    ket_p: np.ndarray
    ket_P: np.ndarray
    ket_slots: np.ndarray

    @classmethod
    def build(cls, basis, quartets: np.ndarray) -> "FamilyOperands":
        """Operands for family quartets given as one member row each."""
        (bs, bra), (ks, ket) = pair_slots(quartets, basis.nshells)
        sides = []
        for slots, side in ((bs, records(basis, bra)), (ks, records(basis, ket))):
            P = np.moveaxis(np.array([r.P for r in side]), -1, 0)
            sides += [np.array([r.p for r in side]), P.copy(), slots]
        return cls(*sides)


@dataclass(frozen=True)
class SweepOperands:
    """What the member stage of :func:`md_sweep` reads of one class."""

    rrows: np.ndarray
    bra_e: np.ndarray
    ket_e: np.ndarray
    bra_slots: np.ndarray
    ket_slots: np.ndarray

    @classmethod
    def build(cls, basis, quartets: np.ndarray, lmax: int) -> "SweepOperands":
        """Operands for one class's rows ``quartets``, swept in a family
        stage at ``lmax``."""
        hb, hk, bs, ks = class_stacks(basis, quartets)
        sign = (-1.0) ** (hk.tt + hk.uu + hk.vv)
        eb, ek = hb.basis_e, hk.basis_e * sign
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
    """The two-stage sweep over per-class operand copies."""
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
    ).reshape(-1, nb * nk)
    out = []
    for ops, f, rows in members:
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


def reference_compute_rows(basis, chunk) -> list[np.ndarray]:
    """``compute_class_rows`` of one family chunk on per-class copies."""
    group = chunk[0][0].group
    fids = [batch.fids[rows] for batch, rows in chunk]
    fq, at = np.unique(np.concatenate(fids), return_inverse=True)
    at = np.split(at, np.cumsum([f.size for f in fids])[:-1])
    fam = FamilyOperands.build(basis, group.quartets)
    blocks = md_sweep(group.lmax, fam, fq, [
        (SweepOperands.build(basis, batch.quartets, group.lmax), f, rows)
        for (batch, rows), f in zip(chunk, at)
    ])
    return [blk.reshape((-1,) + batch.dims) for blk, (batch, _) in zip(blocks, chunk)]
