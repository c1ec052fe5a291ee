"""The one-pair expansion that ``ShellPairData``'s class-at-a-time
expansion replaced: the oracle every array of a pair's slot in its
:class:`~repro.integrals.pairdata.PairData` class stack is checked
against bitwise (tests/test_pairdata.py)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.shells import Shell, cartesian_components
from repro.integrals.hermite import e_coefficients, hermite_index
from repro.integrals.pairdata import _basis_map


@dataclass(frozen=True)
class OnePair:
    """One shell pair's primitive records (or, with a leading pair-slot
    axis on every array but the Hermite indices, a stack of them)."""

    la: int
    lb: int
    #: ``c_a c_b``, ``p``, ``P`` (npp, 3) and E (npp, ncart_a, ncart_b, nherm)
    coef: np.ndarray
    p: np.ndarray
    P: np.ndarray
    E: np.ndarray
    #: ``c_a c_b E`` on normalized basis functions, (npp, ab, nherm)
    basis_e: np.ndarray
    tt: np.ndarray
    uu: np.ndarray
    vv: np.ndarray

    @property
    def npp(self) -> int:
        return int(self.p.shape[-1])

    @property
    def npairs(self) -> int:
        return int(self.p.shape[0])


def build_pair_data(sh_a: Shell, sh_b: Shell) -> OnePair:
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
    to_basis = _basis_map(la, sh_a.pure, lb, sh_b.pure)
    basis_e = np.matmul(to_basis, E.reshape(len(p), -1, tt.size)) * coef[:, None, None]
    return OnePair(
        la=la, lb=lb, coef=coef, p=p, P=P, E=E, basis_e=basis_e, tt=tt, uu=uu, vv=vv
    )
