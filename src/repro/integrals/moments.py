"""Multipole-moment integrals (dipole), via the same Hermite machinery.

The dipole integral ``<a| r_k |b>`` factorizes per direction exactly like
the overlap; along the moment direction the 1-D integral picks up

``<i| x |j> = E_1^{ij} + X_P E_0^{ij}``  (times the sqrt(pi/p) factors),

where ``X_P`` is the Gaussian product center coordinate.  Used by
:mod:`repro.scf.properties` for molecular dipole moments.
"""

from __future__ import annotations

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.hermite import hermite_index
from repro.integrals.oneelec import assemble_pair_classes, overlap_prefactor


def dipole_integrals(
    basis: BasisSet, origin: np.ndarray | None = None
) -> np.ndarray:
    """Dipole integral matrices ``<a| (r - origin)_k |b>``, shape (3, nbf, nbf).

    ``origin`` defaults to the coordinate origin; molecular dipole
    moments of neutral molecules are origin-independent.  Evaluated per
    shell-pair class from the stacked Hermite ``E`` tensors: the 3-D
    coefficient at the unit Hermite index along k is ``E_1`` along k
    times ``E_0`` along the other two directions.
    """
    origin = np.zeros(3) if origin is None else np.asarray(origin, float).reshape(3)

    def blocks(stack, _members):
        hidx = hermite_index(stack.la + stack.lb)
        pref = overlap_prefactor(stack)
        out = []
        for k in range(3):
            unit = tuple(int(d == k) for d in range(3))
            moment = (stack.P[..., k] - origin[k])[:, :, None, None] * stack.E[..., 0]
            if unit in hidx:  # absent for an s-s pair, where E_1 = 0
                moment = moment + stack.E[..., hidx.index(unit)]
            out.append(np.einsum("sx,sxab->sab", pref, moment))
        return np.array(out)

    return assemble_pair_classes(basis, None, blocks, ncomp=3)
