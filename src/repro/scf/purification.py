"""Density-matrix purification (the diagonalization-free path of Sec IV-E).

The paper computes the density matrix from the Fock matrix with
*canonical purification* [Palser & Manolopoulos 1998] instead of
diagonalization, because each iteration is just two matrix multiplies and
traces -- operations that parallelize with SUMMA on exactly the 2D-blocked
distribution the Fock build already uses (Table IX).

This module is the *serial* reference; :mod:`repro.dist.purification_dist`
runs the same iteration on distributed matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_square, check_symmetric


@dataclass
class PurificationResult:
    """Converged purified density (orthogonal basis) plus iteration trace."""

    density: np.ndarray
    iterations: int
    converged: bool
    #: per-iteration idempotency error ||D^2 - D||_F
    history: list[float] = field(default_factory=list)


def initial_density(f_ortho: np.ndarray, nocc: int) -> np.ndarray:
    """Palser-Manolopoulos initial guess: linear map of F into [0, 1].

    Produces a trial density with exact trace ``nocc`` and spectrum inside
    [0, 1], using only the extremal Gershgorin bounds of F.
    """
    check_square(f_ortho, "fock")
    n = f_ortho.shape[0]
    if not 0 < nocc <= n:
        raise ValueError(f"nocc must be in (0, {n}], got {nocc}")
    mu = float(np.trace(f_ortho)) / n
    # Gershgorin bounds on the spectrum of F
    radii = np.sum(np.abs(f_ortho), axis=1) - np.abs(np.diag(f_ortho))
    fmin = float(np.min(np.diag(f_ortho) - radii))
    fmax = float(np.max(np.diag(f_ortho) + radii))
    theta = nocc / n
    lam = min(
        nocc / max(fmax - mu, 1e-300),
        (n - nocc) / max(mu - fmin, 1e-300),
    )
    return (lam / n) * (mu * np.eye(n) - f_ortho) + theta * np.eye(n)


def canonical_step(d: np.ndarray) -> np.ndarray:
    """One trace-conserving (canonical) purification step.

    Chooses between the two cubic polynomials of Palser-Manolopoulos so
    that ``tr(D)`` is preserved exactly while idempotency improves.
    """
    d2 = d @ d
    d3 = d2 @ d
    num = float(np.trace(d2) - np.trace(d3))
    den = float(np.trace(d) - np.trace(d2))
    c = num / den if abs(den) > 1e-300 else 0.5
    if c >= 0.5:
        return ((1.0 + c) * d2 - d3) / c
    return ((1.0 - 2.0 * c) * d + (1.0 + c) * d2 - d3) / (1.0 - c)


def purify(
    f_ortho: np.ndarray,
    nocc: int,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> PurificationResult:
    """Canonical purification of the density from an orthogonal-basis Fock.

    Returns the idempotent density D' (orthogonal basis, trace = nocc);
    transform back with ``D = X D' X^T``.
    """
    check_symmetric(f_ortho, "fock", tol=1e-8)
    d = initial_density(f_ortho, nocc)
    history: list[float] = []
    for it in range(1, max_iter + 1):
        err = float(np.linalg.norm(d @ d - d, "fro"))
        history.append(err)
        if err < tol:
            return PurificationResult(d, it - 1, True, history)
        d = canonical_step(d)
        d = 0.5 * (d + d.T)
    err = float(np.linalg.norm(d @ d - d, "fro"))
    history.append(err)
    return PurificationResult(d, max_iter, err < tol, history)
