"""One-electron integrals: overlap S, kinetic T, nuclear attraction V.

These form the overlap matrix S (for the basis orthogonalization
``X = U s^{-1/2}``) and the core Hamiltonian ``H^core = T + V`` of
Algorithm 1 in the paper.  They are on every SCF run's wall clock, so
they ride the ERI kernel's data: canonical shell pairs are grouped by
class and every class is evaluated at once from its stacked
:class:`~repro.integrals.pairdata.PairData` -- S straight from the
Hermite ``E`` tensors, V with one ``r_tensor_batch`` sweep over
(primitive pairs x nuclei), T from 1-D Hermite tables extended by two
on the ket side.  ``tests/reference_kernel.py`` holds the per-component
scalar loops as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import cartesian_components
from repro.integrals.class_batch import MAX_R_WORK
from repro.integrals.hermite import e_coefficients, r_tensor_batch
from repro.integrals.pairdata import ShellPairData, StackedPairs, stack_pairs
from repro.integrals.spherical import cartesian_to_basis


def assemble_pair_classes(
    basis: BasisSet, pairs: ShellPairData | None, class_blocks
) -> np.ndarray:
    """A symmetric one-electron matrix, one shell-pair class at a time.

    ``class_blocks(stack, members)`` returns the raw Cartesian blocks
    ``(npairs, ncart_a, ncart_b)`` of the canonical pairs ``members``
    (``(npairs, 2)`` shell indices, ``i >= j``) stacked in ``stack``;
    normalization, spherical transforms and the scatter into
    ``(nbf, nbf)`` happen here.  ``pairs`` supplies (and memoizes)
    the pair data: the ERI engine's cache to share it, ``None`` for a
    throwaway one.
    """
    if pairs is None:
        pairs = ShellPairData(basis)
    shells = basis.shells
    classes: dict[tuple, list] = {}
    for i, si in enumerate(shells):
        for j, sj in enumerate(shells[: i + 1]):
            key = (si.l, sj.l, si.pure, sj.pure, si.nprim * sj.nprim)
            classes.setdefault(key, []).append((i, j))
    out = np.zeros((basis.nbf, basis.nbf))
    slices = basis.shell_slices
    for members in classes.values():
        ta, tb = (cartesian_to_basis(shells[s].l, shells[s].pure) for s in members[0])
        stack = stack_pairs([pairs.get(i, j) for i, j in members])
        blocks = class_blocks(stack, np.array(members))
        blocks = ta @ blocks @ tb.T
        for (i, j), blk in zip(members, blocks):
            out[slices[j], slices[i]] = blk.T
            out[slices[i], slices[j]] = blk
    return out


def overlap_prefactor(stack: StackedPairs) -> np.ndarray:
    """``c_a c_b (pi / p)^{3/2}`` per primitive pair, (npairs, npp)."""
    return stack.coef * (math.pi / stack.p) ** 1.5


def overlap(basis: BasisSet, pairs: ShellPairData | None = None) -> np.ndarray:
    """Full overlap matrix S, shape (nbf, nbf)."""

    def blocks(stack, _members):
        return np.einsum(
            "sx,sxab->sab", overlap_prefactor(stack), stack.E[..., 0]
        )

    return assemble_pair_classes(basis, pairs, blocks)


def kinetic(basis: BasisSet, pairs: ShellPairData | None = None) -> np.ndarray:
    """Full kinetic-energy matrix T, blocks ``-1/2 <a|del^2|b>``."""
    shells = basis.shells

    def blocks(stack, members):
        # 1-D tables E_0^{i,j} with j up to lb + 2, every primitive pair
        # of the class along one flat axis (a-major like the pair data)
        sa = [shells[i] for i in members[:, 0]]
        sb = [shells[j] for j in members[:, 1]]
        a = np.concatenate([np.repeat(s.exps, t.nprim) for s, t in zip(sa, sb)])
        b = np.concatenate([np.tile(t.exps, s.nprim) for s, t in zip(sa, sb)])
        ab = np.repeat(
            [s.center - t.center for s, t in zip(sa, sb)], stack.npp, axis=0
        )
        ca = np.array(cartesian_components(stack.la))[:, None, :]
        cb = np.array(cartesian_components(stack.lb))[None, :, :]
        s1d, t1d = [], []
        for d in range(3):
            e0 = e_coefficients(stack.la, stack.lb + 2, a, b, ab[:, d])[:, :, 0]
            i, j = ca[..., d], cb[..., d]
            s1d.append(e0[i, j])
            # D_x^2 on the ket: 4b^2 G_{j+2} - 2b(2j+1) G_j + j(j-1) G_{j-2}
            # (the last coefficient vanishes where j - 2 would not exist)
            t1d.append(
                -2.0 * b * b * e0[i, j + 2]
                + b * (2 * j + 1)[..., None] * e0[i, j]
                - (0.5 * j * (j - 1))[..., None] * e0[i, np.maximum(j - 2, 0)]
            )
        (sx, sy, sz), (tx, ty, tz) = s1d, t1d
        total = tx * sy * sz + sx * ty * sz + sx * sy * tz  # (na, nb, flat)
        return np.einsum(
            "sx,absx->sab",
            overlap_prefactor(stack),
            total.reshape(total.shape[:2] + stack.p.shape),
        )

    return assemble_pair_classes(basis, pairs, blocks)


def nuclear_attraction(
    basis: BasisSet, pairs: ShellPairData | None = None
) -> np.ndarray:
    """Full nuclear-attraction matrix V (includes the -Z sign)."""
    charges = basis.molecule.numbers.astype(float)
    positions = basis.molecule.coords

    def blocks(stack, _members):
        lab = stack.la + stack.lb
        # -Z_C c_a c_b 2 pi / p rides the Hermite seeds: R summed over the
        # nuclei is one (nherm, prim) table per pair to contract
        weights = (-2.0 * math.pi * stack.coef / stack.p)[..., None] * charges
        out = []
        step = max(1, MAX_R_WORK // (stack.npp * len(charges) * math.comb(lab + 4, 4)))
        for lo in range(0, stack.npairs, step):
            sel = slice(lo, lo + step)
            w = weights[sel]
            r = r_tensor_batch(
                lab,
                np.broadcast_to(stack.p[sel, :, None], w.shape),
                stack.P[sel, :, None, :] - positions,
                w.ravel(),
            )
            out.append(np.einsum(
                "sxabh,hsx->sab", stack.E[sel], r.reshape(-1, *w.shape).sum(-1)
            ))
        return np.concatenate(out)

    return assemble_pair_classes(basis, pairs, blocks)


def core_hamiltonian(
    basis: BasisSet, pairs: ShellPairData | None = None
) -> np.ndarray:
    """H^core = T + V (line 2 of Algorithm 1 in the paper)."""
    if pairs is None:
        pairs = ShellPairData(basis)
    return kinetic(basis, pairs) + nuclear_attraction(basis, pairs)
