"""Sequential reference Fock construction.

This is the single-process "ground truth" every distributed builder in
:mod:`repro.fock` is validated against: it enumerates *canonical* shell
quartets (8-fold-unique, Cauchy-Schwarz screened), scatters each computed
block to all of its permutation images, and assembles

``F = H^core + 2J - K``          (Eq 3 of the paper).

The scatter helper :func:`orbit_images` is shared with the distributed
builders so numeric equality is a test of *task coverage and data
movement*, not of contraction formulas.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import (
    EIGHT_PERMUTATIONS,
    density_stack,
    iter_canonical_quartets,
    jk_from_plan,
)
from repro.integrals.engine import ERIEngine
from repro.obs.profile import PHASE_ERI, PHASE_JK, get_profiler

__all__ = [
    "EIGHT_PERMUTATIONS",
    "orbit_images",
    "canonical_shell_quartets",
    "scatter_quartet",
    "build_jk",
    "fock_matrix",
    "hf_electronic_energy",
]


def orbit_images(
    quartet: tuple[int, int, int, int], block: np.ndarray
) -> Iterator[tuple[tuple[int, int, int, int], np.ndarray]]:
    """Distinct shell-tuple images of a quartet with matching block transposes.

    Yields each *distinct* (a, b, c, d) shell tuple in the permutational
    orbit of ``quartet``, paired with the correspondingly transposed
    integral block.  Deduplication by shell tuple is what makes
    coincident-index quartets (e.g. (MM|PQ)) contribute exactly once.
    """
    seen: set[tuple[int, int, int, int]] = set()
    for perm in EIGHT_PERMUTATIONS:
        target = (
            quartet[perm[0]],
            quartet[perm[1]],
            quartet[perm[2]],
            quartet[perm[3]],
        )
        if target in seen:
            continue
        seen.add(target)
        yield target, np.transpose(block, perm)


def canonical_shell_quartets(
    sigma: np.ndarray, tau: float
) -> Iterator[tuple[int, int, int, int]]:
    """Canonical (M>=N, pair(MN) >= pair(PQ)) screened shell quartets.

    ``sigma`` is the shell-pair Schwarz matrix; a quartet survives iff
    ``sigma[M,N] * sigma[P,Q] > tau``.  (The implementation lives in
    :func:`repro.integrals.class_batch.iter_canonical_quartets`, shared
    with the class planner; this alias keeps the historical API.)
    """
    return iter_canonical_quartets(sigma, tau)


def scatter_quartet(
    j: np.ndarray,
    k: np.ndarray,
    density: np.ndarray,
    basis: BasisSet,
    quartet: tuple[int, int, int, int],
    block: np.ndarray,
) -> None:
    """Accumulate one computed quartet into J and K (full-matrix buffers).

    For every distinct image (a,b|c,d) of the quartet::

        J[a,b] += sum_cd (ab|cd) D[c,d]
        K[a,c] += sum_bd (ab|cd) D[b,d]
    """
    slices = basis.shell_slices
    for (a, b, c, d), blk in orbit_images(quartet, block):
        sa, sb, sc, sd = slices[a], slices[b], slices[c], slices[d]
        j[sa, sb] += np.einsum("abcd,cd->ab", blk, density[sc, sd])
        k[sa, sc] += np.einsum("abcd,bd->ac", blk, density[sb, sd])


def build_jk(
    engine: ERIEngine,
    density: np.ndarray,
    tau: float = 1e-11,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coulomb and exchange matrices over the screened canonical quartets.

    Engines that support it take the cross-quartet *class-batched* path
    (:mod:`repro.integrals.class_batch`): one vectorized kernel sweep per
    angular-momentum class and one six-block density contraction per
    block shape, optionally threaded.  Everything else -- and any engine carrying seeded ``scf``
    fault injection, whose corruption stream is defined by per-quartet
    call order -- walks the original per-quartet loop, which produces
    identical J/K up to floating-point summation order.

    Parameters
    ----------
    engine:
        ERI engine (provides quartets and the Schwarz matrix).
    density:
        Symmetric density matrix D, shape (nbf, nbf) -- or a stack
        (k, nbf, nbf) of them, contracted in one pass over the integrals
        and returned as stacked (k, nbf, nbf) J and K.
    tau:
        Cauchy-Schwarz drop tolerance (the paper uses 1e-10).
    threads:
        Worker threads for the class-batched contraction (``None`` reads
        ``REPRO_JK_THREADS``, default 1; ignored on the per-quartet path).
    """
    basis = engine.basis
    if (
        getattr(engine, "supports_class_batched", False)
        and getattr(engine, "scf_faults", None) is None
    ):
        return jk_from_plan(
            engine, density, engine.class_plan(tau), tau=tau, threads=threads
        )
    dens = density_stack(density, basis.nbf)
    j = np.zeros(dens.shape)
    k = np.zeros(dens.shape)
    sigma = engine.schwarz()
    # spans are hoisted out of the loop: this is the repo's hottest path
    # and the probes are gated at <= 5% overhead when profiling is on
    prof = get_profiler()
    eri_span = prof.phase(PHASE_ERI)
    jk_span = prof.phase(PHASE_JK)
    for quartet in canonical_shell_quartets(sigma, tau):
        with eri_span:
            block = engine.quartet(*quartet)
        with jk_span:
            for ji, ki, d in zip(j, k, dens):
                scatter_quartet(ji, ki, d, basis, quartet, block)
    store = getattr(engine, "integral_store", None)
    if store is not None and store.filling and store.pending_blocks:
        store.finalize(tau)
    return (j, k) if np.ndim(density) == 3 else (j[0], k[0])


def fock_matrix(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    tau: float = 1e-11,
    threads: int | None = None,
) -> np.ndarray:
    """Closed-shell Fock matrix F = H^core + 2J - K (Eq 3)."""
    j, k = build_jk(engine, density, tau, threads=threads)
    return hcore + 2.0 * j - k


def hf_electronic_energy(
    hcore: np.ndarray, fock: np.ndarray, density: np.ndarray
) -> float:
    """Closed-shell electronic energy  E = sum_ij D_ij (H_ij + F_ij)."""
    return float(np.sum(density * (hcore + fock)))
