"""The per-quartet Fock build ``repro.scf.fock.build_jk`` replaced.

Kept verbatim as the differential oracle for the one production path
(class plan -> chunk resolver -> six-block contraction): enumerate the
canonical screened shell quartets with three nested Python loops, ask
the engine for each block (``quartet_blocks``: one plan of them), and
scatter it to every distinct permutation image (``orbit_images``, the
scatter the numeric distributed builders replayed per quartet) with two
einsums per image.  Production code must not import this module.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from reference_engine import quartet_blocks
from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import EIGHT_PERMUTATIONS, density_stack


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
    ``sigma[M,N] * sigma[P,Q] > tau``.  The oracle of the planner's
    vectorised ``canonical_quartet_array`` (same order).
    """
    ns = sigma.shape[0]
    for m in range(ns):
        for n in range(m + 1):
            smn = sigma[m, n]
            if smn <= 0.0:
                continue
            for p in range(m + 1):
                qmax = n if p == m else p
                for q in range(qmax + 1):
                    if smn * sigma[p, q] > tau:
                        yield (m, n, p, q)


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


def reference_build_jk(
    engine, density: np.ndarray, tau: float = 1e-11
) -> tuple[np.ndarray, np.ndarray]:
    """J and K by the per-quartet loop: one :func:`scatter_quartet` per
    canonical quartet (and density) of its block."""
    basis = engine.basis
    dens = density_stack(density, basis.nbf)
    j = np.zeros(dens.shape)
    k = np.zeros(dens.shape)
    quartets = list(canonical_shell_quartets(engine.schwarz(), tau))
    blocks = quartet_blocks(engine, quartets)
    for quartet in quartets:
        block = blocks[quartet]
        for ji, ki, d in zip(j, k, dens):
            scatter_quartet(ji, ki, d, basis, quartet, block)
    return (j, k) if np.ndim(density) == 3 else (j[0], k[0])
