"""Shell-pair data caching and the batched McMurchie-Davidson ERI kernel.

GTFock's central performance idea (Sec II-C/III of the paper) is that
everything density-*independent* about a shell pair -- Gaussian product
exponents, product centers, contraction prefactors, and the Hermite
E-coefficient tensors -- should be computed *once per basis* and then
amortized over every quartet that pair participates in:

* :class:`PairData` / :class:`ShellPairData` -- the per-pair primitive
  records stacked into contiguous ndarrays, built lazily and cached per
  ordered shell-pair index so each pair is expanded exactly once.
* :func:`md_sweep` -- the kernel that flattens the bra x ket primitive
  loops of any number of quartets: one vectorized Boys/``r_tensor_batch``
  evaluation over *all* primitive quartets at once and two batched
  matmuls -- the class-batched Fock build's kernel
  (:mod:`repro.integrals.class_batch`), one sweep per chunk of a class.

Numerics are identical to the per-primitive path
(:func:`repro.integrals.eri_md.eri_shell_quartet`) up to floating-point
summation order (agreement far below 1e-10; see tests/test_pairdata.py).
"""

from __future__ import annotations

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
                                   self.tt, self.uu, self.vv)
        )


#: a :class:`PairData` with the leading pair-slot axis
StackedPairs = PairData


def build_pair_data(sh_a: Shell, sh_b: Shell) -> PairData:
    """Expand one shell pair into its stacked primitive records.

    This is the stacked-ndarray equivalent of the seed's per-call
    ``_pair_hermite``; the E tensor of each primitive pair lands in one
    slice of a single (npp, ncart_a, ncart_b, nherm) array.
    """
    la, lb = sh_a.l, sh_b.l
    lab = la + lb
    comps_a = cartesian_components(la)
    comps_b = cartesian_components(lb)
    hidx = hermite_index(lab)
    tt = np.array([h[0] for h in hidx])
    uu = np.array([h[1] for h in hidx])
    vv = np.array([h[2] for h in hidx])
    ax = np.array([c[0] for c in comps_a])
    ay = np.array([c[1] for c in comps_a])
    az = np.array([c[2] for c in comps_a])
    bx = np.array([c[0] for c in comps_b])
    by = np.array([c[1] for c in comps_b])
    bz = np.array([c[2] for c in comps_b])
    A, B = sh_a.center, sh_b.center
    # all primitive pairs at once, a-major
    a = np.repeat(sh_a.exps, sh_b.nprim)
    b = np.tile(sh_b.exps, sh_a.nprim)
    coef = np.repeat(sh_a.norm_coefs, sh_b.nprim) * np.tile(
        sh_b.norm_coefs, sh_a.nprim
    )
    p = a + b
    P = (a[:, None] * A + b[:, None] * B) / p[:, None]
    ex, ey, ez = (
        e_coefficients(la, lb, a, b, float(A[d] - B[d])) for d in range(3)
    )
    E = np.ascontiguousarray(np.moveaxis(
        ex[ax[:, None, None], bx[None, :, None], tt[None, None, :]]
        * ey[ay[:, None, None], by[None, :, None], uu[None, None, :]]
        * ez[az[:, None, None], bz[None, :, None], vv[None, None, :]],
        -1, 0,
    ))
    return PairData(la=la, lb=lb, coef=coef, p=p, P=P, E=E, tt=tt, uu=uu, vv=vv)


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

    def get(self, i: int, j: int) -> PairData:
        """The stacked pair data for shells ``(i, j)``, computed once."""
        key = (i, j)
        data = self._pairs.get(key)
        if data is None:
            from repro.obs import get_profiler
            from repro.obs.profile import PHASE_PAIRDATA

            with get_profiler().phase(PHASE_PAIRDATA):
                shells = self.basis.shells
                data = build_pair_data(shells[i], shells[j])
            self._pairs[key] = data
            self.pairs_built += 1
        return data

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def nbytes(self) -> int:
        """Total memory held by all cached pair records."""
        return sum(d.nbytes for d in self._pairs.values())


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
        tt=first.tt,
        uu=first.uu,
        vv=first.vv,
    )


@dataclass(frozen=True)
class SweepOperands:
    """What :func:`md_sweep` needs of one (bra stack, ket stack) pairing
    beyond the stacks, whichever quartets are swept."""

    #: rows of the compact Hermite tensor at (tuv)_bra + (tuv)_ket,
    #: flattened (nherm_bra * nherm_ket,)
    rrows: np.ndarray
    #: per pair slot, ``coef / p`` (bra side times 2 pi^{5/2}), (npairs, npp)
    bra_w: np.ndarray
    ket_w: np.ndarray
    #: per pair slot, E on normalized basis functions as matmul operands:
    #: (npairs, ab, herm x prim) and, with the ket sign (-1)^{t+u+v}
    #: folded in, (npairs, herm x prim, cd)
    bra_e: np.ndarray
    ket_e: np.ndarray

    @classmethod
    def build(
        cls, bra: StackedPairs, ket: StackedPairs, pure: tuple[bool, ...]
    ) -> "SweepOperands":
        """Operands for shells of purity ``pure`` (a, b, c, d): E carries
        :func:`cartesian_to_basis`, so the matmuls land on basis functions."""
        lmax = bra.la + bra.lb + ket.la + ket.lb

        def on_basis(stack, pure_a, pure_b):  # E as (pair, prim, herm, ab)
            t = np.kron(
                cartesian_to_basis(stack.la, pure_a),
                cartesian_to_basis(stack.lb, pure_b),
            )
            flat = stack.E.reshape(stack.E.shape[:2] + (-1, stack.tt.size))
            return np.tensordot(flat, t, axes=([2], [1]))

        bra_e = on_basis(bra, *pure[:2]).transpose(0, 3, 2, 1)
        ket_sign = (-1.0) ** (ket.tt + ket.uu + ket.vv)
        ket_e = (on_basis(ket, *pure[2:]) * ket_sign[:, None]).transpose(0, 2, 1, 3)
        return cls(
            rrows=hermite_lookup(lmax)[
                bra.tt[:, None] + ket.tt[None, :],
                bra.uu[:, None] + ket.uu[None, :],
                bra.vv[:, None] + ket.vv[None, :],
            ].ravel(),
            bra_w=_TWO_PI_52 * bra.coef / bra.p,
            ket_w=ket.coef / ket.p,
            bra_e=bra_e.reshape(bra.npairs, bra_e.shape[1], -1),
            ket_e=ket_e.reshape(ket.npairs, -1, ket_e.shape[3]),
        )


def md_sweep(
    ops: SweepOperands,
    bra: StackedPairs,
    ket: StackedPairs,
    bs: np.ndarray,
    ks: np.ndarray,
) -> np.ndarray:
    """ERI blocks ``(nq, ab, cd)`` over basis functions of the quartets
    pairing bra slots ``bs`` with ket slots ``ks``, in one primitive sweep.

    One ``r_tensor_batch`` over every primitive quartet, carrying the
    prefactor ``c_b c_k 2 pi^{5/2} / (p q sqrt(p + q))``, then
    ``sum_{x,y,i,j} Eb R Ek`` as two batched matmuls ``(ab, ix) @ (ix, jy)
    @ (jy, cd)``.  Each quartet's arithmetic is independent of the rest of
    the sweep: a row recomputed alone is bitwise the row of a full sweep.
    """
    pb = bra.p[bs][:, :, None]
    qk = ket.p[ks][:, None, :]
    nq, nb, nk = pb.shape[0], pb.shape[1], qk.shape[2]
    lmax = bra.la + bra.lb + ket.la + ket.lb
    psum = pb + qk
    pref = ops.bra_w[bs][:, :, None] * ops.ket_w[ks][:, None, :]
    pref /= np.sqrt(psum)
    alpha = np.divide(pb * qk, psum, out=psum)
    pq_vec = (
        bra.P[bs].transpose(2, 0, 1)[:, :, :, None]
        - ket.P[ks].transpose(2, 0, 1)[:, :, None, :]
    )
    r = r_tensor_batch(lmax, alpha.ravel(), pq_vec.reshape(3, -1).T, pref.ravel())
    if lmax == 0:
        rmat = r.reshape(nq, nb, nk)
    else:
        # one row gather, one transpose: (hb, hk, q, x, y) -> (q, hb x, hk y)
        hb = bra.tt.size
        rmat = (
            np.take(r, ops.rrows, axis=0)
            .reshape(hb, -1, nq, nb, nk)
            .transpose(2, 0, 3, 1, 4)
            .reshape(nq, hb * nb, -1)
        )
    return np.matmul(np.matmul(ops.bra_e[bs], rmat), ops.ket_e[ks])

