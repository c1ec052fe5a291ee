"""Contracted Gaussian shells and their normalization.

A *shell* is a set of contracted Gaussian basis functions sharing one
angular momentum ``l`` and one center (Sec II-A of the paper).  Shells are
the minimal batching unit of electron-repulsion-integral (ERI)
computation: integrals are always produced one *shell quartet* at a time.

Conventions
-----------
* Cartesian components of a shell are ordered lexicographically with
  ``lx`` descending: s -> (000); p -> x, y, z; d -> xx, xy, xz, yy, yz, zz.
* Each Cartesian component is individually normalized.  Shells with
  ``pure=True`` (allowed for ``l == 2``) are expressed in the real solid
  harmonic basis via :mod:`repro.integrals.spherical`.
* Contraction coefficients are stored raw (as published) and folded with
  primitive and contraction normalization into :attr:`Shell.norm_coefs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ANGULAR_LETTERS = "spdfgh"


def ncart(l: int) -> int:
    """Number of Cartesian components of angular momentum ``l``."""
    return (l + 1) * (l + 2) // 2


def nsph(l: int) -> int:
    """Number of real solid-harmonic components of angular momentum ``l``."""
    return 2 * l + 1


def cartesian_components(l: int) -> list[tuple[int, int, int]]:
    """All (lx, ly, lz) with lx+ly+lz = l, in library order."""
    comps = []
    for lx in range(l, -1, -1):
        for ly in range(l - lx, -1, -1):
            comps.append((lx, ly, l - lx - ly))
    return comps


def double_factorial(n: int) -> int:
    """(n)!! with the convention (-1)!! = 0!! = 1."""
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, lx: int, ly: int, lz: int) -> float:
    """Normalization constant of the primitive ``x^lx y^ly z^lz exp(-a r^2)``."""
    l = lx + ly + lz
    num = (2.0 * alpha / math.pi) ** 1.5 * (4.0 * alpha) ** l
    den = (
        double_factorial(2 * lx - 1)
        * double_factorial(2 * ly - 1)
        * double_factorial(2 * lz - 1)
    )
    return math.sqrt(num / den)


def component_scale(lx: int, ly: int, lz: int) -> float:
    """Ratio N(lx,ly,lz) / N(l,0,0) for equal exponent.

    The contraction is normalized with respect to the (l,0,0) component;
    integral routines multiply each component by this exponent-independent
    factor to obtain individually normalized Cartesian functions.
    """
    l = lx + ly + lz
    return math.sqrt(
        double_factorial(2 * l - 1)
        / (
            double_factorial(2 * lx - 1)
            * double_factorial(2 * ly - 1)
            * double_factorial(2 * lz - 1)
        )
    )


def normalize_contraction(l: int, exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Fold primitive and contraction normalization into coefficients.

    Returns coefficients ``c_i`` such that the contracted (l,0,0)
    Cartesian function ``sum_i c_i x^l exp(-a_i r^2)`` has unit self
    overlap.
    """
    exps = np.asarray(exps, dtype=float)
    coefs = np.asarray(coefs, dtype=float)
    if exps.shape != coefs.shape or exps.ndim != 1 or exps.size == 0:
        raise ValueError("exps and coefs must be equal-length 1-D arrays")
    if np.any(exps <= 0):
        raise ValueError("Gaussian exponents must be positive")
    prim = np.array([primitive_norm(a, l, 0, 0) for a in exps])
    c = coefs * prim
    # self-overlap of the contracted (l,0,0) function
    asum = exps[:, None] + exps[None, :]
    pair = (
        double_factorial(2 * l - 1)
        * math.pi**1.5
        / (2.0**l * asum ** (l + 1.5))
    )
    s = float(c @ pair @ c)
    if s <= 0:
        raise ValueError("contraction has non-positive self overlap")
    return c / math.sqrt(s)


@dataclass(frozen=True)
class Shell:
    """One contracted Gaussian shell on an atomic center.

    Attributes
    ----------
    l:
        Angular momentum (0=s, 1=p, 2=d, ...).
    exps, coefs:
        Primitive exponents and raw contraction coefficients.
    center:
        Cartesian center in bohr (length-3).
    atom_index:
        Index of the owning atom within the molecule.
    pure:
        Use real solid harmonics (5 functions for d) instead of the 6
        Cartesian components.  Only supported for ``l <= 2``.
    """

    l: int
    exps: np.ndarray
    coefs: np.ndarray
    center: np.ndarray
    atom_index: int
    pure: bool = False
    norm_coefs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError(f"angular momentum must be >= 0, got {self.l}")
        if self.pure and self.l > 2:
            raise NotImplementedError("pure (spherical) shells supported up to l=2")
        exps = np.asarray(self.exps, dtype=float)
        coefs = np.asarray(self.coefs, dtype=float)
        center = np.asarray(self.center, dtype=float).reshape(3)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "center", center)
        object.__setattr__(
            self, "norm_coefs", normalize_contraction(self.l, exps, coefs)
        )

    @property
    def nprim(self) -> int:
        return int(self.exps.size)

    @property
    def nbf(self) -> int:
        """Number of basis functions this shell contributes."""
        return nsph(self.l) if self.pure else ncart(self.l)

    @property
    def letter(self) -> str:
        return ANGULAR_LETTERS[self.l]

    def at(self, center: np.ndarray, atom_index: int) -> "Shell":
        """Copy of this shell placed on a different center/atom."""
        return Shell(
            l=self.l,
            exps=self.exps,
            coefs=self.coefs,
            center=np.asarray(center, dtype=float),
            atom_index=atom_index,
            pure=self.pure,
        )

    def min_exponent(self) -> float:
        """Most diffuse primitive exponent (controls the shell's extent)."""
        return float(self.exps.min())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shell({self.letter}, nprim={self.nprim}, atom={self.atom_index}, "
            f"pure={self.pure})"
        )
