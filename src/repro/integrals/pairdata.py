"""Shell-pair data caching and the batched McMurchie-Davidson ERI kernel.

GTFock's central performance idea (Sec II-C/III of the paper) is that
everything density-*independent* about a shell pair -- Gaussian product
exponents, product centers, contraction prefactors, and the Hermite
E-coefficient tensors -- should be computed *once per basis* and then
amortized over every quartet that pair participates in.  The seed
implementation (:func:`repro.integrals.eri_md.eri_shell_quartet`)
recomputes all of it for bra and ket on every call, and then walks the
bra x ket primitive pairs in a Python loop.

Two pieces fix that:

* :class:`PairData` / :class:`ShellPairData` -- the per-pair primitive
  records stacked into contiguous ndarrays, built lazily and cached per
  ordered shell-pair index so each pair is expanded exactly once.
* :func:`eri_shell_quartet_batched` -- the quartet kernel that flattens
  the bra x ket primitive loops: one vectorized Boys/``r_tensor_batch``
  evaluation over *all* primitive quartets at once and a single einsum
  contraction, instead of one ``r_tensor`` + einsum per primitive pair.

Numerics are identical to the per-primitive path up to floating-point
summation order (agreement far below 1e-10; see tests/test_pairdata.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell, cartesian_components
from repro.integrals.eri_md import finalize_quartet
from repro.integrals.hermite import e_coefficients, hermite_index, r_tensor_batch

_TWO_PI_52 = 2.0 * math.pi**2.5


@dataclass(frozen=True)
class PairData:
    """Stacked density-independent primitive data for one shell pair.

    All arrays share the leading primitive-pair axis of length
    ``npp = nprim_a * nprim_b``.
    """

    la: int
    lb: int
    #: contraction coefficient products ``c_a c_b``, shape (npp,)
    coef: np.ndarray
    #: composite exponents ``p = a + b``, shape (npp,)
    p: np.ndarray
    #: Gaussian product centers ``P``, shape (npp, 3)
    P: np.ndarray
    #: E tensors stacked, shape (npp, ncart_a, ncart_b, nherm)
    E: np.ndarray
    #: flattened Hermite (t, u, v) indices, each shape (nherm,)
    tt: np.ndarray
    uu: np.ndarray
    vv: np.ndarray

    @property
    def npp(self) -> int:
        """Number of primitive pairs."""
        return int(self.p.size)

    @property
    def nbytes(self) -> int:
        """Memory held by the stacked arrays."""
        return sum(
            arr.nbytes for arr in (self.coef, self.p, self.P, self.E,
                                   self.tt, self.uu, self.vv)
        )


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
            from repro.obs.profile import PHASE_PAIRDATA, get_profiler

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


@dataclass(frozen=True)
class StackedPairs:
    """Unique shell pairs of one angular-momentum class, stacked.

    The cross-quartet analogue of :class:`PairData`: all arrays gain a
    leading *pair-slot* axis of length ``npairs`` so a whole class batch
    can gather its bra (or ket) primitive data with one fancy-index read
    (see :mod:`repro.integrals.class_batch`).  Stacking requires every
    member pair to share ``(la, lb, npp)`` -- guaranteed by the class
    key.
    """

    la: int
    lb: int
    #: contraction coefficient products, shape (npairs, npp)
    coef: np.ndarray
    #: composite exponents, shape (npairs, npp)
    p: np.ndarray
    #: Gaussian product centers, shape (npairs, npp, 3)
    P: np.ndarray
    #: E tensors, shape (npairs, npp, ncart_a, ncart_b, nherm)
    E: np.ndarray
    #: flattened Hermite (t, u, v) indices shared by the class, (nherm,)
    tt: np.ndarray
    uu: np.ndarray
    vv: np.ndarray

    @property
    def npairs(self) -> int:
        return int(self.p.shape[0])

    @property
    def npp(self) -> int:
        """Primitive pairs per shell pair (uniform across the stack)."""
        return int(self.p.shape[1])

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes for arr in (self.coef, self.p, self.P, self.E,
                                   self.tt, self.uu, self.vv)
        )


def stack_pairs(
    cache: ShellPairData, pairs: list[tuple[int, int]]
) -> StackedPairs:
    """Stack the :class:`PairData` of ``pairs`` into one contiguous block.

    ``pairs`` must be non-empty and class-uniform (same ``la``, ``lb``,
    and primitive-pair count); the per-pair records come from (and are
    memoized in) ``cache``.
    """
    if not pairs:
        raise ValueError("cannot stack an empty pair list")
    records = [cache.get(i, j) for i, j in pairs]
    first = records[0]
    for rec in records[1:]:
        if (rec.la, rec.lb, rec.npp) != (first.la, first.lb, first.npp):
            raise ValueError("stack_pairs requires class-uniform pairs")
    return StackedPairs(
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


def eri_shell_quartet_batched(
    sh_a: Shell,
    sh_b: Shell,
    sh_c: Shell,
    sh_d: Shell,
    bra: PairData | None = None,
    ket: PairData | None = None,
) -> np.ndarray:
    """The ERI block ``(ab|cd)`` via one batched primitive evaluation.

    Drop-in equivalent of
    :func:`repro.integrals.eri_md.eri_shell_quartet`: same shapes, same
    normalization, same spherical handling.  Pass precomputed ``bra`` /
    ``ket`` :class:`PairData` (e.g. from a :class:`ShellPairData` cache)
    to skip the per-call pair expansion entirely.
    """
    if bra is None:
        bra = build_pair_data(sh_a, sh_b)
    if ket is None:
        ket = build_pair_data(sh_c, sh_d)
    lmax = bra.la + bra.lb + ket.la + ket.lb
    nb, nk = bra.npp, ket.npp

    # composite Gaussian data over all nb*nk primitive quartets
    pb = bra.p[:, None]
    qk = ket.p[None, :]
    psum = pb + qk
    alpha = pb * qk / psum
    pq_vec = bra.P[:, None, :] - ket.P[None, :, :]
    r = r_tensor_batch(lmax, alpha.ravel(), pq_vec.reshape(-1, 3))

    # gather R at summed Hermite indices: (nq, nherm_bra, nherm_ket)
    ket_sign = (-1.0) ** (ket.tt + ket.uu + ket.vv)
    rmat = (
        r[
            :,
            bra.tt[:, None] + ket.tt[None, :],
            bra.uu[:, None] + ket.uu[None, :],
            bra.vv[:, None] + ket.vv[None, :],
        ]
        * ket_sign[None, None, :]
    ).reshape(nb, nk, bra.tt.size, ket.tt.size)
    pref = bra.coef[:, None] * ket.coef[None, :] * _TWO_PI_52 / (
        pb * qk * np.sqrt(psum)
    )
    out = np.einsum(
        "xabi,xyij,ycdj,xy->abcd", bra.E, rmat, ket.E, pref, optimize=True
    )
    return finalize_quartet(out, (sh_a, sh_b, sh_c, sh_d))
