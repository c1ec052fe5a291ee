"""Basis orthogonalization: X = U s^{-1/2} U^T (lines 3-4 of Algorithm 1).

Symmetric (Loewdin) orthogonalization by default, with canonical
orthogonalization as a fallback when the overlap matrix is nearly
singular (linearly dependent basis sets).  The switch is never silent:
it raises a :class:`LinearDependenceWarning`, sets the
``repro_scf_overlap_condition`` gauge and
``repro_scf_canonical_orth_total`` counter, and is reported in
:class:`OrthoInfo` so the SCF guard can record it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.obs import get_metrics
from repro.util.validation import check_finite, check_symmetric

#: ``cond(S)`` past which the orthogonalizer goes canonical
COND_LIMIT = 1e8

class LinearDependenceWarning(UserWarning):
    """The overlap matrix was ill-conditioned enough to drop directions."""


@dataclass(frozen=True)
class OrthoInfo:
    """What the orthogonalizer actually did (for guards and reports)."""

    condition: float
    n_kept: int
    n_dropped: int
    canonical: bool
    threshold: float


def orthogonalizer_info(
    s: np.ndarray,
    threshold: float = 1e-8,
    canonical: bool = False,
) -> tuple[np.ndarray, OrthoInfo]:
    """Transformation X with ``X^T S X = I``, plus what was done to get it.

    Parameters
    ----------
    s:
        Overlap matrix.
    threshold:
        Eigenvalues below ``threshold * max_eig`` are dropped (canonical
        path only keeps the rest).
    canonical:
        Force canonical orthogonalization (columns may be fewer than nbf).

    Auto-switches to canonical orthogonalization (with a
    :class:`LinearDependenceWarning`) once ``cond(S)`` exceeds
    :data:`COND_LIMIT`, even if no eigenvalue falls below the drop
    threshold: a nearly singular ``S^{-1/2}`` amplifies Fock-matrix noise
    by the full condition number.
    """
    check_symmetric(s, "overlap", tol=1e-8)
    check_finite(s, "overlap")
    vals, vecs = np.linalg.eigh(0.5 * (s + s.T))
    vmax = float(vals.max())
    if vmax <= 0:
        raise ValueError(
            f"overlap matrix is not positive definite (max eigenvalue {vmax:.3e})"
        )
    vmin = float(vals.min())
    condition = vmax / vmin if vmin > 0 else float("inf")
    get_metrics().gauge(
        "repro_scf_overlap_condition", "condition number of the overlap matrix"
    ).set(condition)
    keep = vals > threshold * vmax
    auto_switch = not canonical and (not keep.all() or condition > COND_LIMIT)
    if canonical or auto_switch:
        if not keep.any():
            raise ValueError(
                f"overlap: every eigenvalue is below threshold * max_eig "
                f"({threshold:.1e} * {vmax:.3e}) -- the basis is numerically "
                f"rank-deficient; check the geometry for coincident atoms"
            )
        n_kept = int(keep.sum())
        if auto_switch:
            warnings.warn(
                f"overlap matrix is near-singular (condition {condition:.3e}, "
                f"{s.shape[0] - n_kept} eigenvalue(s) below "
                f"{threshold:.1e} * max): switching to canonical "
                f"orthogonalization with {n_kept} of {s.shape[0]} functions",
                LinearDependenceWarning,
                stacklevel=2,
            )
            get_metrics().counter(
                "repro_scf_canonical_orth_total",
                "automatic switches to canonical orthogonalization",
            ).inc()
        x = vecs[:, keep] / np.sqrt(vals[keep])
        return x, OrthoInfo(
            condition=condition,
            n_kept=n_kept,
            n_dropped=s.shape[0] - n_kept,
            canonical=True,
            threshold=threshold,
        )
    x = (vecs / np.sqrt(vals)) @ vecs.T
    return x, OrthoInfo(
        condition=condition,
        n_kept=s.shape[0],
        n_dropped=0,
        canonical=False,
        threshold=threshold,
    )


def orthogonalizer(
    s: np.ndarray, threshold: float = 1e-8, canonical: bool = False
) -> np.ndarray:
    """:func:`orthogonalizer_info` without the info (the common call)."""
    return orthogonalizer_info(s, threshold=threshold, canonical=canonical)[0]


def density_from_coefficients(c_occ: np.ndarray) -> np.ndarray:
    """Closed-shell density D = C_occ C_occ^T (line 10 of Algorithm 1).

    Note: we adopt the convention ``D = C_occ C_occ^T`` (without the
    factor 2); the factor appears in ``F = H + 2J - K`` and in the energy
    expression instead, matching Eq (3) of the paper.
    """
    return c_occ @ c_occ.T


def density_from_fock(
    fock: np.ndarray,
    x: np.ndarray,
    nocc: int,
    level_shift: float = 0.0,
    overlap: np.ndarray | None = None,
    density: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize F in the orthogonal basis and form the new density.

    Returns (density, orbital_energies, coefficients) -- lines 7-10 of
    Algorithm 1.

    With ``level_shift > 0`` (a guard remediation), the virtual space is
    raised by ``level_shift`` hartree before diagonalization:
    ``F' = F_ortho + shift * (I - P)`` with ``P = X^T S D S X`` the
    occupied projector of the *current* density.  At convergence P
    commutes with F, so the converged density is unchanged -- the shift
    only damps occupied-virtual rotations along the way.
    """
    if nocc <= 0:
        raise ValueError(f"need at least one occupied orbital, got nocc={nocc}")
    f_ortho = x.T @ fock @ x
    if level_shift != 0.0:
        if overlap is None or density is None:
            raise ValueError(
                "level_shift requires the overlap matrix and current density"
            )
        p = x.T @ overlap @ density @ overlap @ x
        f_ortho = f_ortho + level_shift * (
            np.eye(f_ortho.shape[0]) - 0.5 * (p + p.T)
        )
    eps, c_prime = np.linalg.eigh(0.5 * (f_ortho + f_ortho.T))
    c = x @ c_prime
    c_occ = c[:, :nocc]
    return density_from_coefficients(c_occ), eps, c
