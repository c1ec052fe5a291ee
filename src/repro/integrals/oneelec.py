"""One-electron integrals: overlap S, kinetic T, nuclear attraction V.

These form the overlap matrix S (for the basis orthogonalization
``X = U s^{-1/2}``) and the core Hamiltonian ``H^core = T + V`` of
Algorithm 1 in the paper.  They are on every SCF run's wall clock -- a
warm stored run serves its Fock builds in a few ms each -- so they take
one pass of their own and no ERI pair data: canonical shell pairs are
grouped by ``(la, lb, pure_a, pure_b)`` and every group's primitive pairs
are gathered by index arithmetic over per-shell exponent and coefficient
tables.  One ``e_coefficients(la, lb + 2)`` table per direction gives S,
T (the ket side extended by two) and the Hermite ``E`` of V, which is one
``r_tensor_batch`` over (primitive pairs x nuclei); segment sums,
the spherical transform and one scatter finish each group.  The ERI
engine's :class:`~repro.integrals.pairdata.ShellPairData` stays Schwarz's
and the class plan's.  ``tests/reference_oneelec.py`` (the class-stack
assembly this replaced) and ``tests/reference_kernel.py`` (per-component
scalar loops) are the oracles.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import cartesian_components
from repro.integrals.class_batch import MAX_R_WORK
from repro.integrals.hermite import e_coefficients, hermite_index, r_tensor_batch
from repro.integrals.spherical import cartesian_to_basis
from repro.obs import phase
from repro.obs.profile import PHASE_ONE_ELECTRON


def _one_pass(basis: BasisSet, hcore: bool) -> np.ndarray:
    """``[S]``, or ``[S, T, V]`` when ``hcore``, stacked ``(m, nbf, nbf)``."""
    with phase(PHASE_ONE_ELECTRON):
        shells = basis.shells
        nprim = np.array([sh.nprim for sh in shells])
        first = np.cumsum(nprim) - nprim
        exps = np.concatenate([sh.exps for sh in shells])
        coefs = np.concatenate([sh.norm_coefs for sh in shells])
        centers = np.array([sh.center for sh in shells])
        kind = np.array([2 * sh.l + sh.pure for sh in shells])
        out = np.zeros((3 if hcore else 1, basis.nbf, basis.nbf))
        i, j = np.tril_indices(basis.nshells)
        group = kind[i] * (kind.max() + 1) + kind[j]
        for g in np.unique(group).tolist():
            si, sj = i[group == g], j[group == g]
            (la, pa), (lb, pb) = (divmod(int(kind[s[0]]), 2) for s in (si, sj))
            # every primitive pair of the group on one axis, a-major per pair
            npp = nprim[si] * nprim[sj]
            seg = np.cumsum(npp) - npp
            pair = np.repeat(np.arange(si.size), npp)
            q, nb = np.arange(npp.sum()) - seg[pair], nprim[sj][pair]
            ia, ib = first[si][pair] + q // nb, first[sj][pair] + q % nb
            a, b, coef = exps[ia], exps[ib], coefs[ia] * coefs[ib]
            A, B = centers[si][pair], centers[sj][pair]
            e = [e_coefficients(la, lb + 2 * hcore, a, b, A[:, d] - B[:, d]) for d in range(3)]
            # per direction the tables at the Cartesian components' (i, j)
            ca, cb = (np.array(cartesian_components(l)).reshape(-1, 3).T[..., None]
                      for l in (la, lb))
            ij = [(ca[d], cb[d].T) for d in range(3)]
            s1d = [e[d][i_, j_, 0] for d, (i_, j_) in enumerate(ij)]  # (na, nb, prim)
            pref = coef * (math.pi / (a + b)) ** 1.5
            vals = [s1d[0] * s1d[1] * s1d[2] * pref]
            if hcore:
                # D_x^2 on the ket: 4b^2 G_{j+2} - 2b(2j+1) G_j + j(j-1) G_{j-2}
                # (the last coefficient vanishes where j - 2 would not exist)
                tx, ty, tz = (
                    -2.0 * b * b * e[d][i_, j_ + 2, 0] + b * (2 * j_ + 1)[..., None] * s1d[d]
                    - (0.5 * j_ * (j_ - 1))[..., None] * e[d][i_, np.maximum(j_ - 2, 0), 0]
                    for d, (i_, j_) in enumerate(ij)
                )
                sx, sy, sz = s1d
                vals.append((tx * sy * sz + sx * ty * sz + sx * sy * tz) * pref)
                vals.append(_attraction(basis.molecule, la + lb, e, ij, a, b, A, B, coef))
            sums = np.add.reduceat(np.stack(vals), seg, axis=-1)  # (m, na, nb, pair)
            ta, tb = cartesian_to_basis(la, bool(pa)), cartesian_to_basis(lb, bool(pb))
            blocks = ta @ np.moveaxis(sums, -1, 1) @ tb.T  # (m, pair, a, b)
            rows = basis.offsets[si][:, None, None] + np.arange(ta.shape[0])[:, None]
            cols = basis.offsets[sj][:, None, None] + np.arange(tb.shape[0])
            out[:, cols.swapaxes(1, 2), rows.swapaxes(1, 2)] = blocks.swapaxes(2, 3)
            out[:, rows, cols] = blocks
    return out


def _attraction(molecule, lab: int, e: list, ij: list, a, b, A, B, coef) -> np.ndarray:
    """V per primitive pair, ``(na, nb, prim)``: the Hermite ``E`` from the
    1-D tables ``e`` at the components ``ij``, contracted with ``R`` summed
    over the nuclei -- one ``r_tensor_batch`` per chunk of primitive pairs
    (at most :data:`MAX_R_WORK` primitive pairs x nuclei x Hermite rows)."""
    herm = np.array(hermite_index(lab)).T
    charges = molecule.numbers.astype(float)
    p = a + b
    P = (a[:, None] * A + b[:, None] * B) / p[:, None]
    # -Z_C c_a c_b 2 pi / p rides the Hermite seeds
    weights = (-2.0 * math.pi * coef / p)[:, None] * charges
    out = []
    step = max(1, MAX_R_WORK // (charges.size * math.comb(lab + 4, 4)))
    for lo in range(0, p.size, step):
        sel = slice(lo, lo + step)
        hx, hy, hz = (
            e[d][..., sel][i_[..., None], j_[..., None], herm[d]]
            for d, (i_, j_) in enumerate(ij)
        )
        w = weights[sel]
        r = r_tensor_batch(
            lab, np.broadcast_to(p[sel, None], w.shape), P[sel, None, :] - molecule.coords,
            w.ravel(),
        )
        out.append(np.einsum("abhx,hx->abx", hx * hy * hz, r.reshape(-1, *w.shape).sum(-1)))
    return np.concatenate(out, axis=-1)


def one_electron(basis: BasisSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, kinetic energy T (blocks ``-1/2 <a|del^2|b>``) and nuclear
    attraction V (the -Z sign included), shape (nbf, nbf) each, from one
    pass."""
    s, t, v = _one_pass(basis, True)
    return s, t, v


def overlap(basis: BasisSet) -> np.ndarray:
    """Full overlap matrix S, shape (nbf, nbf)."""
    return _one_pass(basis, False)[0]


def core_hamiltonian(basis: BasisSet) -> np.ndarray:
    """H^core = T + V (line 2 of Algorithm 1 in the paper)."""
    _, t, v = one_electron(basis)
    return t + v
