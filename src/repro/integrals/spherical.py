"""Cartesian -> real solid-harmonic (spherical) transformations.

Supported through l = 2, which covers every basis set shipped with this
library (cc-pVDZ-structured sets top out at d shells).  The coefficients
assume *individually normalized* Cartesian components (this library's
convention) and produce unit-normalized spherical functions.

Spherical d ordering: m = -2, -1, 0, +1, +2, i.e.
``xy, yz, z^2, xz, x^2-y^2``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem.basis.shells import cartesian_components, component_scale

_SQRT3_OVER_2 = math.sqrt(3.0) / 2.0

# rows: spherical m = -2..+2; cols: cartesian xx, xy, xz, yy, yz, zz
_D_TRANSFORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # m=-2: xy
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],  # m=-1: yz
        [-0.5, 0.0, 0.0, -0.5, 0.0, 1.0],  # m= 0: (2zz - xx - yy)/2-ish
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # m=+1: xz
        [_SQRT3_OVER_2, 0.0, 0.0, -_SQRT3_OVER_2, 0.0, 0.0],  # m=+2
    ]
)


def transform_matrix(l: int) -> np.ndarray:
    """The (nsph x ncart) transform for angular momentum ``l``."""
    if l == 0:
        return np.ones((1, 1))
    if l == 1:
        return np.eye(3)
    if l == 2:
        return _D_TRANSFORM.copy()
    raise NotImplementedError(f"spherical transform not implemented for l={l}")


def cartesian_to_basis(l: int, pure: bool) -> np.ndarray:
    """The ``(nbf, ncart)`` map from a shell's raw Cartesian components to
    its basis functions: per-component angular normalization, then the
    solid-harmonic transform if the shell is pure."""
    scale = np.array([component_scale(*c) for c in cartesian_components(l)])
    return (transform_matrix(l) if pure else np.eye(scale.size)) * scale
