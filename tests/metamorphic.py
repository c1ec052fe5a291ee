"""Seeded transformations an SCF energy must not notice.

A rigid motion (rotation about the centroid plus a translation) and a
reordering of the atom list change every coordinate, every shell index
and every quartet's place in the class plan, but not the molecule:
``E(T(mol)) == E(mol)`` to SCF precision.  Test helper only.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Atom, Molecule


def _rebuilt(mol: Molecule, symbols, coords) -> Molecule:
    return Molecule(
        atoms=[
            Atom(s, tuple(float(v) for v in xyz))
            for s, xyz in zip(symbols, coords)
        ],
        charge=mol.charge, name=mol.name,
    )


def rigid_motion(mol: Molecule, seed: int) -> Molecule:
    """``mol`` under a seeded rotation about its centroid (a uniformly
    drawn unit quaternion) followed by a seeded translation (bohr)."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    coords = mol.coords
    centroid = coords.mean(axis=0)
    moved = (coords - centroid) @ rot.T + centroid + rng.uniform(-3, 3, 3)
    return _rebuilt(mol, [a.symbol for a in mol.atoms], moved)


def permuted(mol: Molecule, seed: int) -> Molecule:
    """``mol`` with its atom list in a seeded random order."""
    order = np.random.default_rng(seed).permutation(len(mol.atoms))
    return _rebuilt(
        mol, [mol.atoms[i].symbol for i in order], mol.coords[order]
    )
