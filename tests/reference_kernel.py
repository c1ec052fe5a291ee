"""Reference integral kernels: the implementations the class-stacked
kernel floor replaced.

Kept verbatim (bar imports, and ``reference_class_rows`` /
``_finalize_class`` deriving the ``TT/UU/VV/ket_sign`` and
``scales/transforms`` constants that used to live on ``ClassBatch``) as
the oracles of the differential tests in ``tests/test_reference_kernel.py``
and of the analytic one-electron / Schwarz tests:

* ``r_tensor_batch`` -- the dense ``(L+1)^4`` Hermite recursion;
* ``per_class_rows`` -- the per-class sweep exponent families replaced:
  one Boys / ``r_tensor_batch`` pass per class at the class's own L,
  contraction coefficients in the prefactor (``PerClassOperands.bra_w``)
  rather than in E (``per_class_sweep``, the old ``md_sweep``);
* ``reference_class_rows`` -- the ``compute_class_rows`` body before
  that (gather, sign and prefactor passes over the full primitive
  tensor);
* ``eri_shell_quartet_batched`` / ``pair_bound`` -- the per-pair
  Schwarz diagonal through the per-quartet batched kernel;
* ``overlap_block`` / ``kinetic_block`` / ``nuclear_attraction_block``
  -- the per-component scalar one-electron loops.

They share ``boys_array`` and ``e_coefficients`` with the production
code on purpose: ``tests/test_boys.py`` gates those against independent
references, and everything here is about the sweep *around* them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from reference_eri import apply_transforms, finalize_quartet, r_tensor

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell, cartesian_components, component_scale
from repro.integrals import hermite
from repro.integrals.boys import boys_array
from repro.integrals.class_batch import ClassBatch
from repro.integrals.hermite import e_coefficients, hermite_lookup
from repro.integrals.pairdata import (
    PairData,
    StackedPairs,
    _pair_slots,
    build_pair_data,
    stack_pairs,
)
from repro.integrals.spherical import cartesian_to_basis, transform_matrix

_TWO_PI_52 = 2.0 * math.pi**2.5


def class_stacks(batch: ClassBatch):
    """A class's unique bra / ket pair data stacked, and per-row slots
    into the two stacks."""
    pairs, ns = batch.pair_cache, batch.pair_cache.basis.nshells
    (bra_slots, bra_pairs), (ket_slots, ket_pairs) = _pair_slots(batch.quartets, ns)
    bra = stack_pairs([pairs.get(i, j) for i, j in bra_pairs])
    ket = stack_pairs([pairs.get(i, j) for i, j in ket_pairs])
    return bra, ket, bra_slots, ket_slots


@dataclass(frozen=True)
class PerClassOperands:
    """What :func:`per_class_sweep` needs of one (bra stack, ket stack)
    pairing beyond the stacks, whichever quartets are swept."""

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
    ) -> "PerClassOperands":
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


def per_class_sweep(
    ops: PerClassOperands,
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
    r = hermite.r_tensor_batch(
        lmax, alpha.ravel(), pq_vec.reshape(3, -1).T, pref.ravel()
    )
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


def per_class_rows(batch: ClassBatch, rows) -> np.ndarray:
    """ERI blocks ``(nrows, *dims)`` for ``rows`` of one class in one
    per-class sweep, at the class's own L."""
    bra, ket, bra_slots, ket_slots = class_stacks(batch)
    ops = PerClassOperands.build(bra, ket, batch.pure)
    return per_class_sweep(
        ops, bra, ket, bra_slots[rows], ket_slots[rows]
    ).reshape((-1,) + batch.dims)


def r_tensor_batch(lmax: int, ps: np.ndarray, pqs: np.ndarray) -> np.ndarray:
    """Hermite Coulomb integrals for a whole batch of composite centers.

    The batched equivalent of :func:`r_tensor`: one Boys-function sweep
    over every argument (``boys_array``), then the same upward recursion
    with each (n, t, u, v) entry holding a length-``nq`` vector.  The
    recursion loop count is independent of the batch size, so the Python
    overhead is amortized over all primitive quartets of a shell quartet.

    Parameters
    ----------
    lmax:
        Maximum total Hermite order (shared by the batch).
    ps:
        Composite exponents, shape (nq,).
    pqs:
        Composite-center difference vectors, shape (nq, 3).

    Returns
    -------
    R of shape (nq, lmax+1, lmax+1, lmax+1); entries with t+u+v > lmax
    are 0.
    """
    ps = np.asarray(ps, dtype=float).ravel()
    pqs = np.asarray(pqs, dtype=float).reshape(-1, 3)
    nq = ps.size
    x, y, z = pqs[:, 0], pqs[:, 1], pqs[:, 2]
    r2 = x * x + y * y + z * z
    fm = boys_array(lmax, ps * r2)  # (nq, lmax+1)
    # batch axis last so each recursion entry is one contiguous vector
    rn = np.zeros((lmax + 1, lmax + 1, lmax + 1, lmax + 1, nq))
    scale = np.ones(nq)
    for n in range(lmax + 1):
        rn[n, 0, 0, 0] = scale * fm[:, n]
        scale = scale * (-2.0 * ps)
    for total in range(1, lmax + 1):
        for n in range(lmax - total, -1, -1):
            for t in range(total + 1):
                for u in range(total - t + 1):
                    v = total - t - u
                    if t > 0:
                        val = x * rn[n + 1, t - 1, u, v]
                        if t > 1:
                            val = val + (t - 1) * rn[n + 1, t - 2, u, v]
                    elif u > 0:
                        val = y * rn[n + 1, t, u - 1, v]
                        if u > 1:
                            val = val + (u - 1) * rn[n + 1, t, u - 2, v]
                    else:
                        val = z * rn[n + 1, t, u, v - 1]
                        if v > 1:
                            val = val + (v - 1) * rn[n + 1, t, u, v - 2]
                    rn[n, t, u, v] = val
    return np.moveaxis(rn[0], -1, 0)


def reference_class_rows(batch: ClassBatch, rows) -> np.ndarray:
    """ERI blocks for ``rows`` of a class in one primitive sweep.

    Returns the stacked, finalized blocks of shape ``(nrows, *dims)``:
    one ``boys_array``/``r_tensor_batch`` evaluation and one einsum over
    every primitive quartet of every selected shell quartet.
    """
    bra, ket, bra_slots, ket_slots = class_stacks(batch)
    TT = bra.tt[:, None] + ket.tt[None, :]
    UU = bra.uu[:, None] + ket.uu[None, :]
    VV = bra.vv[:, None] + ket.vv[None, :]
    ket_sign = (-1.0) ** (ket.tt + ket.uu + ket.vv)
    bs = bra_slots[rows]
    ks = ket_slots[rows]
    cb, pb, Pb, Eb = bra.coef[bs], bra.p[bs], bra.P[bs], bra.E[bs]
    ck, pk, Pk, Ek = ket.coef[ks], ket.p[ks], ket.P[ks], ket.E[ks]
    nq, nb = pb.shape
    nk = pk.shape[1]

    pbx = pb[:, :, None]
    qkx = pk[:, None, :]
    psum = pbx + qkx
    alpha = pbx * qkx / psum
    pq_vec = Pb[:, :, None, :] - Pk[:, None, :, :]
    r = r_tensor_batch(batch.lmax, alpha.ravel(), pq_vec.reshape(-1, 3))
    hb, hk = TT.shape
    rmat = (
        (r[:, TT, UU, VV] * ket_sign[None, None, :])
        .reshape(nq, nb, nk, hb, hk)
    )
    pref = (
        cb[:, :, None] * ck[:, None, :] * _TWO_PI_52
        / (pbx * qkx * np.sqrt(psum))
    )
    # the 4-operand contraction sum_{x,y,i,j} Eb R Ek pref as two batched
    # matmuls (BLAS; no per-call einsum path search): fold pref into R,
    # then (ab, xi) @ (xi, yj) @ (yj, cd)
    rp = rmat * pref[:, :, :, None, None]
    na, nb_c = Eb.shape[2], Eb.shape[3]
    nc, nd = Ek.shape[2], Ek.shape[3]
    ebm = Eb.transpose(0, 2, 3, 1, 4).reshape(nq, na * nb_c, nb * hb)
    rpm = rp.transpose(0, 1, 3, 2, 4).reshape(nq, nb * hb, nk * hk)
    ekm = Ek.transpose(0, 1, 4, 2, 3).reshape(nq, nk * hk, nc * nd)
    out = np.matmul(np.matmul(ebm, rpm), ekm).reshape(nq, na, nb_c, nc, nd)
    return _finalize_class(out, batch)


def _finalize_class(out: np.ndarray, batch: ClassBatch) -> np.ndarray:
    """Batched component normalization + spherical transform.

    The stacked equivalent of
    :func:`reference_eri.finalize_quartet`: scales broadcast
    over the leading quartet axis; each pure axis is contracted with the
    shared solid-harmonic matrix of its angular momentum.
    """
    scales = tuple(
        np.array([component_scale(*c) for c in cartesian_components(l)])
        for l in batch.lkey
    )
    transforms = tuple(
        transform_matrix(l) if pu else None
        for l, pu in zip(batch.lkey, batch.pure)
    )
    for axis, scale in enumerate(scales):
        shape = [1, 1, 1, 1, 1]
        shape[axis + 1] = scale.size
        out *= scale.reshape(shape)
    for axis, t in enumerate(transforms):
        if t is None:
            continue
        out = np.tensordot(out, t, axes=([axis + 1], [1]))
        out = np.moveaxis(out, -1, axis + 1)
    return np.ascontiguousarray(out)


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
    :func:`reference_eri.eri_shell_quartet`: same shapes, same
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


def pair_bound(basis: BasisSet, m: int, n: int) -> float:
    """Exact shell-pair value sigma(M,N) from the diagonal quartet.

    Evaluated on the batched primitive kernel with the (M,N) pair data
    built once and shared between bra and ket -- screening setup used to
    cost as much as a visible slice of the whole J/K build on the seed
    per-primitive kernel.
    """
    sh_m, sh_n = basis.shells[m], basis.shells[n]
    pd = build_pair_data(sh_m, sh_n)
    block = eri_shell_quartet_batched(sh_m, sh_n, sh_m, sh_n, bra=pd, ket=pd)
    nm, nn = sh_m.nbf, sh_n.nbf
    diag = np.abs(np.einsum("ijij->ij", block.reshape(nm, nn, nm, nn)))
    return float(np.sqrt(diag.max()))


def _pair_e1d(sh_a: Shell, sh_b: Shell, extra_b: int = 0):
    """Per-primitive-pair 1-D Hermite coefficients for the three directions.

    Yields ``(ca*cb, p, P, (Ex, Ey, Ez))`` for every primitive pair, where
    the E arrays allow 1-D angular momenta up to ``la`` and ``lb+extra_b``.
    """
    la, lb = sh_a.l, sh_b.l
    A, B = sh_a.center, sh_b.center
    for a, ca in zip(sh_a.exps, sh_a.norm_coefs):
        for b, cb in zip(sh_b.exps, sh_b.norm_coefs):
            p = a + b
            P = (a * A + b * B) / p
            es = tuple(
                e_coefficients(la, lb + extra_b, a, b, float(A[d] - B[d]))
                for d in range(3)
            )
            yield ca * cb, a, b, p, P, es


def overlap_block(sh_a: Shell, sh_b: Shell) -> np.ndarray:
    """Overlap block between two shells (basis-function shape)."""
    comps_a = cartesian_components(sh_a.l)
    comps_b = cartesian_components(sh_b.l)
    block = np.zeros((len(comps_a), len(comps_b)))
    for coef, _a, _b, p, _P, (ex, ey, ez) in _pair_e1d(sh_a, sh_b):
        pref = coef * (math.pi / p) ** 1.5
        for ia, (ax, ay, az) in enumerate(comps_a):
            for ib, (bx, by, bz) in enumerate(comps_b):
                block[ia, ib] += pref * ex[ax, bx, 0] * ey[ay, by, 0] * ez[az, bz, 0]
    _scale_components(block, sh_a, sh_b)
    return apply_transforms(block, (sh_a, sh_b))


def kinetic_block(sh_a: Shell, sh_b: Shell) -> np.ndarray:
    """Kinetic-energy block ``-1/2 <a|del^2|b>`` between two shells."""
    comps_a = cartesian_components(sh_a.l)
    comps_b = cartesian_components(sh_b.l)
    block = np.zeros((len(comps_a), len(comps_b)))
    for coef, _a, b, p, _P, (ex, ey, ez) in _pair_e1d(sh_a, sh_b, extra_b=2):
        pref = coef * (math.pi / p) ** 1.5
        for ia, (ax, ay, az) in enumerate(comps_a):
            for ib, (bx, by, bz) in enumerate(comps_b):
                sx, sy, sz = ex[ax, bx, 0], ey[ay, by, 0], ez[az, bz, 0]
                tx = _kin1d(ex, ax, bx, b)
                ty = _kin1d(ey, ay, by, b)
                tz = _kin1d(ez, az, bz, b)
                block[ia, ib] += pref * (tx * sy * sz + sx * ty * sz + sx * sy * tz)
    _scale_components(block, sh_a, sh_b)
    return apply_transforms(block, (sh_a, sh_b))


def nuclear_attraction_block(
    sh_a: Shell, sh_b: Shell, charges: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Nuclear-attraction block ``-sum_C Z_C <a| 1/|r-C| |b>``."""
    comps_a = cartesian_components(sh_a.l)
    comps_b = cartesian_components(sh_b.l)
    ltot = sh_a.l + sh_b.l
    block = np.zeros((len(comps_a), len(comps_b)))
    for coef, _a, _b, p, P, (ex, ey, ez) in _pair_e1d(sh_a, sh_b):
        pref = coef * 2.0 * math.pi / p
        for z, c in zip(charges, positions):
            r = r_tensor(ltot, p, P - c)
            for ia, (ax, ay, az) in enumerate(comps_a):
                for ib, (bx, by, bz) in enumerate(comps_b):
                    acc = 0.0
                    for t in range(ax + bx + 1):
                        for u in range(ay + by + 1):
                            for v in range(az + bz + 1):
                                acc += (
                                    ex[ax, bx, t]
                                    * ey[ay, by, u]
                                    * ez[az, bz, v]
                                    * r[t, u, v]
                                )
                    block[ia, ib] -= pref * z * acc
    _scale_components(block, sh_a, sh_b)
    return apply_transforms(block, (sh_a, sh_b))


def _kin1d(e: np.ndarray, i: int, j: int, b: float) -> float:
    """1-D kinetic factor from overlap coefficients E with lb extended by 2."""
    term = -2.0 * b * b * e[i, j + 2, 0] + b * (2 * j + 1) * e[i, j, 0]
    if j >= 2:
        term -= 0.5 * j * (j - 1) * e[i, j - 2, 0]
    return term


def _scale_components(block: np.ndarray, sh_a: Shell, sh_b: Shell) -> None:
    """Apply per-component angular normalization in place (Cartesian block)."""
    sa = np.array([component_scale(*c) for c in cartesian_components(sh_a.l)])
    sb = np.array([component_scale(*c) for c in cartesian_components(sh_b.l)])
    block *= sa[:, None] * sb[None, :]
