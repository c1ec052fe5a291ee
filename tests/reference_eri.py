"""Per-primitive reference ERI kernels: the oracles the batched kernels
replaced, kept verbatim (bar imports).

* ``eri_shell_quartet`` / ``finalize_quartet`` / ``eri_tensor`` -- the
  per-primitive McMurchie-Davidson kernel (one ``r_tensor`` recursion and
  one einsum per primitive quartet), the production engine's rescue
  kernel until the batched Obara-Saika kernel replaced it;
* ``r_tensor`` -- the scalar Hermite Coulomb recursion behind it;
* ``eri_shell_quartet_os`` / ``_vrr`` -- the per-primitive Obara-Saika
  kernel (a memoized dict recursion per primitive quartet), which
  :func:`repro.integrals.eri_os.os_class_rows` batches over a class;
* ``shell_transform`` / ``apply_transforms`` -- the per-shell spherical
  transform of one Cartesian block (the batched kernels apply
  ``cartesian_to_basis`` to whole classes);
* ``boys_single`` / ``boys_series`` / ``boys_quadrature`` -- scalar Boys
  references, the last two sharing no code with
  :func:`repro.integrals.boys.boys`.

Production code must not import this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import (
    Shell,
    cartesian_components,
    component_scale,
    ncart,
    nsph,
)
from repro.integrals.boys import boys
from repro.integrals.hermite import e_coefficients, hermite_index
from repro.integrals.spherical import transform_matrix


def shell_transform(shell: Shell) -> np.ndarray:
    """Transform from this shell's Cartesian components to its basis functions.

    Identity-shaped for Cartesian shells; the solid-harmonic matrix for
    pure shells.
    """
    if shell.pure:
        return transform_matrix(shell.l)
    return np.eye(ncart(shell.l))


def apply_transforms(block: np.ndarray, shells: tuple[Shell, ...]) -> np.ndarray:
    """Apply per-axis shell transforms to a Cartesian integral block.

    ``block`` has one axis per shell (2 axes for one-electron blocks,
    4 for ERIs), each of Cartesian length; pure axes are contracted down
    to spherical length.
    """
    if block.ndim != len(shells):
        raise ValueError(
            f"block rank {block.ndim} does not match {len(shells)} shells"
        )
    out = block
    for axis, sh in enumerate(shells):
        if sh.pure:
            t = transform_matrix(sh.l)
            out = np.tensordot(t, out, axes=([1], [axis]))
            out = np.moveaxis(out, 0, axis)
        elif out.shape[axis] != ncart(sh.l):
            raise ValueError(
                f"axis {axis} has length {out.shape[axis]}, expected {ncart(sh.l)}"
            )
    expected = tuple(nsph(sh.l) if sh.pure else ncart(sh.l) for sh in shells)
    if out.shape != expected:
        raise AssertionError(f"transformed shape {out.shape} != {expected}")
    return out


def boys_single(m: int, x: float) -> float:
    """F_m(x) for one order and one argument (scalar convenience path)."""
    return float(boys(m, x)[m])


def boys_series(m: int, x: float, terms: int = 200) -> float:
    """Convergent series: F_m(x) = e^{-x} sum_k (2m-1)!! (2x)^k / (2m+2k+1)!!.

    Reference implementation; converges for all x but is slow for large x.
    """
    acc = 0.0
    term = 1.0 / (2.0 * m + 1.0)
    for k in range(terms):
        acc += term
        term *= 2.0 * x / (2.0 * m + 2.0 * k + 3.0)
        if term < 1e-18 * max(acc, 1.0):
            break
    return math.exp(-x) * acc


def boys_quadrature(m: int, x: float, npts: int = 20001) -> float:
    """Direct numerical quadrature of the defining integral (tests only)."""
    t = np.linspace(0.0, 1.0, npts)
    y = t ** (2 * m) * np.exp(-x * t * t)
    return float(np.trapezoid(y, t))


def r_tensor(lmax: int, p: float, pq: np.ndarray) -> np.ndarray:
    """Hermite Coulomb integrals ``R_{tuv}`` with t+u+v <= lmax.

    Parameters
    ----------
    lmax:
        Maximum total Hermite order.
    p:
        The composite exponent (``p`` for nuclear attraction with the
        nucleus at distance PQ; ``p q / (p + q)`` for ERIs).
    pq:
        The 3-vector from the composite center to the other center.

    Returns
    -------
    R of shape (lmax+1, lmax+1, lmax+1); entries with t+u+v > lmax are 0.
    """
    x, y, z = (float(c) for c in pq)
    r2 = x * x + y * y + z * z
    fm = boys(lmax, p * r2)
    # layer n stored at rn[n], seeded with R^{(n)}_{000} = (-2p)^n F_n
    rn = np.zeros((lmax + 1, lmax + 1, lmax + 1, lmax + 1))
    scale = 1.0
    for n in range(lmax + 1):
        rn[n, 0, 0, 0] = scale * fm[n]
        scale *= -2.0 * p
    for total in range(1, lmax + 1):
        for n in range(lmax - total, -1, -1):
            for t in range(total + 1):
                for u in range(total - t + 1):
                    v = total - t - u
                    if t > 0:
                        val = x * rn[n + 1, t - 1, u, v]
                        if t > 1:
                            val += (t - 1) * rn[n + 1, t - 2, u, v]
                    elif u > 0:
                        val = y * rn[n + 1, t, u - 1, v]
                        if u > 1:
                            val += (u - 1) * rn[n + 1, t, u - 2, v]
                    else:
                        val = z * rn[n + 1, t, u, v - 1]
                        if v > 1:
                            val += (v - 1) * rn[n + 1, t, u, v - 2]
                    rn[n, t, u, v] = val
    return rn[0]


def _pair_hermite(sh_a: Shell, sh_b: Shell):
    """Precompute Hermite expansion data for a shell pair (one electron side).

    Returns a list of primitive-pair records ``(coef, p, P, E)`` where E
    has shape (ncart_a, ncart_b, n_hermite) over the flattened (t, u, v)
    index with t+u+v <= la+lb, plus the flattened index arrays.
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
    records = []
    for a, ca in zip(sh_a.exps, sh_a.norm_coefs):
        for b, cb in zip(sh_b.exps, sh_b.norm_coefs):
            p = a + b
            P = (a * A + b * B) / p
            ex = e_coefficients(la, lb, a, b, float(A[0] - B[0]))
            ey = e_coefficients(la, lb, a, b, float(A[1] - B[1]))
            ez = e_coefficients(la, lb, a, b, float(A[2] - B[2]))
            E = (
                ex[ax[:, None, None], bx[None, :, None], tt[None, None, :]]
                * ey[ay[:, None, None], by[None, :, None], uu[None, None, :]]
                * ez[az[:, None, None], bz[None, :, None], vv[None, None, :]]
            )
            records.append((ca * cb, p, P, E))
    return records, (tt, uu, vv)


def finalize_quartet(out: np.ndarray, shells: tuple[Shell, Shell, Shell, Shell]) -> np.ndarray:
    """Component normalization + spherical transform of a Cartesian block.

    Shared tail of the per-primitive and batched quartet kernels so both
    produce identically normalized blocks.
    """
    for axis, sh in enumerate(shells):
        scales = np.array(
            [component_scale(*c) for c in cartesian_components(sh.l)]
        )
        shape = [1, 1, 1, 1]
        shape[axis] = len(scales)
        out *= scales.reshape(shape)
    return apply_transforms(out, shells)


def eri_shell_quartet(
    sh_a: Shell, sh_b: Shell, sh_c: Shell, sh_d: Shell
) -> np.ndarray:
    """The ERI block ``(ab|cd)`` with basis-function shape.

    Shape is ``(nbf_a, nbf_b, nbf_c, nbf_d)`` -- spherical lengths for
    pure shells, Cartesian otherwise.
    """
    bra, (tb, ub, vb) = _pair_hermite(sh_a, sh_b)
    ket, (tk, uk, vk) = _pair_hermite(sh_c, sh_d)
    lmax = sh_a.l + sh_b.l + sh_c.l + sh_d.l
    ket_sign = (-1.0) ** (tk + uk + vk)

    na, nb = len(cartesian_components(sh_a.l)), len(cartesian_components(sh_b.l))
    nc, nd = len(cartesian_components(sh_c.l)), len(cartesian_components(sh_d.l))
    out = np.zeros((na, nb, nc, nd))
    two_pi_52 = 2.0 * math.pi**2.5
    for cab, p, P, Eab in bra:
        for ccd, q, Q, Ecd in ket:
            alpha = p * q / (p + q)
            r = r_tensor(lmax, alpha, P - Q)
            rmat = (
                r[
                    tb[:, None] + tk[None, :],
                    ub[:, None] + uk[None, :],
                    vb[:, None] + vk[None, :],
                ]
                * ket_sign[None, :]
            )
            pref = cab * ccd * two_pi_52 / (p * q * math.sqrt(p + q))
            out += pref * np.einsum(
                "abi,ij,cdj->abcd", Eab, rmat, Ecd, optimize=True
            )

    return finalize_quartet(out, (sh_a, sh_b, sh_c, sh_d))


def eri_tensor(basis: BasisSet) -> np.ndarray:
    """Full ERI tensor (nbf^4) for small systems.

    Exploits the 8-fold permutational symmetry of Eq (4): each unique
    shell quartet is computed once and scattered to all equivalent
    positions.  Memory is O(nbf^4) -- use only for validation-scale
    molecules.
    """
    n = basis.nbf
    eri = np.zeros((n, n, n, n))
    ns = basis.nshells
    for m in range(ns):
        sm = basis.shell_slice(m)
        for nsh in range(m + 1):
            sn = basis.shell_slice(nsh)
            for p in range(m + 1):
                sp = basis.shell_slice(p)
                qmax = nsh if p == m else p
                for q in range(qmax + 1):
                    sq = basis.shell_slice(q)
                    blk = eri_shell_quartet(
                        basis.shells[m],
                        basis.shells[nsh],
                        basis.shells[p],
                        basis.shells[q],
                    )
                    eri[sm, sn, sp, sq] = blk
                    eri[sn, sm, sp, sq] = blk.transpose(1, 0, 2, 3)
                    eri[sm, sn, sq, sp] = blk.transpose(0, 1, 3, 2)
                    eri[sn, sm, sq, sp] = blk.transpose(1, 0, 3, 2)
                    eri[sp, sq, sm, sn] = blk.transpose(2, 3, 0, 1)
                    eri[sq, sp, sm, sn] = blk.transpose(3, 2, 0, 1)
                    eri[sp, sq, sn, sm] = blk.transpose(2, 3, 1, 0)
                    eri[sq, sp, sn, sm] = blk.transpose(3, 2, 1, 0)
    return eri


Triple = tuple[int, int, int]


def _raise_index(a: Triple, i: int) -> Triple:
    out = list(a)
    out[i] += 1
    return tuple(out)  # type: ignore[return-value]


def _lower_index(a: Triple, i: int) -> Triple:
    out = list(a)
    out[i] -= 1
    return tuple(out)  # type: ignore[return-value]


def _vrr(
    la_max: int,
    lc_max: int,
    p: float,
    q: float,
    PA: np.ndarray,
    WP: np.ndarray,
    QC: np.ndarray,
    WQ: np.ndarray,
    ssss: np.ndarray,
) -> dict[tuple[Triple, Triple], float]:
    """All (a0|c0)^{(0)} classes with |a| <= la_max, |c| <= lc_max.

    ``ssss[m]`` holds the (ss|ss)^{(m)} auxiliary values.
    """
    rho = p * q / (p + q)
    table: dict[tuple[Triple, Triple, int], float] = {}
    zero: Triple = (0, 0, 0)
    mtot = la_max + lc_max
    for m in range(mtot + 1):
        table[(zero, zero, m)] = float(ssss[m])

    def get(a: Triple, c: Triple, m: int) -> float:
        if min(a) < 0 or min(c) < 0:
            return 0.0
        key = (a, c, m)
        val = table.get(key)
        if val is not None:
            return val
        # lower on the center with angular momentum, preferring a
        if sum(a) > 0:
            i = max(range(3), key=lambda d: a[d])
            am = _lower_index(a, i)
            v = PA[i] * get(am, c, m) + WP[i] * get(am, c, m + 1)
            if am[i] > 0:
                amm = _lower_index(am, i)
                v += (
                    am[i]
                    / (2.0 * p)
                    * (get(amm, c, m) - rho / p * get(amm, c, m + 1))
                )
            if c[i] > 0:
                cm = _lower_index(c, i)
                v += c[i] / (2.0 * (p + q)) * get(am, cm, m + 1)
        else:
            i = max(range(3), key=lambda d: c[d])
            cm = _lower_index(c, i)
            v = QC[i] * get(a, cm, m) + WQ[i] * get(a, cm, m + 1)
            if cm[i] > 0:
                cmm = _lower_index(cm, i)
                v += (
                    cm[i]
                    / (2.0 * q)
                    * (get(a, cmm, m) - rho / q * get(a, cmm, m + 1))
                )
        table[key] = v
        return v

    out: dict[tuple[Triple, Triple], float] = {}
    for ltot_a in range(la_max + 1):
        for a in cartesian_components(ltot_a):
            for ltot_c in range(lc_max + 1):
                for c in cartesian_components(ltot_c):
                    out[(a, c)] = get(a, c, 0)
    return out


def eri_shell_quartet_os(
    sh_a: Shell, sh_b: Shell, sh_c: Shell, sh_d: Shell
) -> np.ndarray:
    """The ERI block ``(ab|cd)`` computed with Obara-Saika + HRR."""
    la, lb, lc, ld = sh_a.l, sh_b.l, sh_c.l, sh_d.l
    A, B, C, D = sh_a.center, sh_b.center, sh_c.center, sh_d.center
    AB = A - B
    CD = C - D
    la_max, lc_max = la + lb, lc + ld
    mtot = la_max + lc_max

    # contracted (a0|c0) classes
    contracted: dict[tuple[Triple, Triple], float] = {}
    for a_exp, ca in zip(sh_a.exps, sh_a.norm_coefs):
        for b_exp, cb in zip(sh_b.exps, sh_b.norm_coefs):
            p = a_exp + b_exp
            P = (a_exp * A + b_exp * B) / p
            kab = math.exp(-a_exp * b_exp / p * float(AB @ AB))
            for c_exp, cc in zip(sh_c.exps, sh_c.norm_coefs):
                for d_exp, cd_ in zip(sh_d.exps, sh_d.norm_coefs):
                    q = c_exp + d_exp
                    Q = (c_exp * C + d_exp * D) / q
                    kcd = math.exp(-c_exp * d_exp / q * float(CD @ CD))
                    W = (p * P + q * Q) / (p + q)
                    rho = p * q / (p + q)
                    pq = P - Q
                    T = rho * float(pq @ pq)
                    fm = boys(mtot, T)
                    pref = (
                        2.0
                        * math.pi**2.5
                        / (p * q * math.sqrt(p + q))
                        * kab
                        * kcd
                    )
                    ssss = pref * fm
                    classes = _vrr(
                        la_max, lc_max, p, q, P - A, W - P, Q - C, W - Q, ssss
                    )
                    w = ca * cb * cc * cd_
                    for key, val in classes.items():
                        contracted[key] = contracted.get(key, 0.0) + w * val

    # horizontal recurrences on contracted classes:
    # (a,b+1i|c,d) = (a+1i,b|c,d) + AB_i (a,b|c,d)
    hrr_bra: dict[tuple[Triple, Triple, Triple], float] = {
        (a, (0, 0, 0), c): v for (a, c), v in contracted.items()
    }

    def get_bra(a: Triple, b: Triple, c: Triple) -> float:
        key = (a, b, c)
        val = hrr_bra.get(key)
        if val is not None:
            return val
        i = max(range(3), key=lambda d: b[d])
        bm = _lower_index(b, i)
        v = get_bra(_raise_index(a, i), bm, c) + AB[i] * get_bra(a, bm, c)
        hrr_bra[key] = v
        return v

    hrr_full: dict[tuple[Triple, Triple, Triple, Triple], float] = {}

    def get_full(a: Triple, b: Triple, c: Triple, d: Triple) -> float:
        if sum(d) == 0:
            return get_bra(a, b, c)
        key = (a, b, c, d)
        val = hrr_full.get(key)
        if val is not None:
            return val
        i = max(range(3), key=lambda dd: d[dd])
        dm = _lower_index(d, i)
        v = get_full(a, b, _raise_index(c, i), dm) + CD[i] * get_full(a, b, c, dm)
        hrr_full[key] = v
        return v

    comps_a = cartesian_components(la)
    comps_b = cartesian_components(lb)
    comps_c = cartesian_components(lc)
    comps_d = cartesian_components(ld)
    out = np.zeros((len(comps_a), len(comps_b), len(comps_c), len(comps_d)))
    for ia, a in enumerate(comps_a):
        for ib, b in enumerate(comps_b):
            for ic, c in enumerate(comps_c):
                for id_, d in enumerate(comps_d):
                    out[ia, ib, ic, id_] = get_full(a, b, c, d)

    for axis, sh in enumerate((sh_a, sh_b, sh_c, sh_d)):
        scales = np.array([component_scale(*cc) for cc in cartesian_components(sh.l)])
        shape = [1, 1, 1, 1]
        shape[axis] = len(scales)
        out *= scales.reshape(shape)
    return apply_transforms(out, (sh_a, sh_b, sh_c, sh_d))
