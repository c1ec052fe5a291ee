"""Molecule container.

Coordinates are stored internally in **bohr** (atomic units), which is what
the integral code consumes.  The geometry builders use Angstrom, the
conventional unit for molecular geometries, and convert on the way in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.chem.elements import (
    ANGSTROM_PER_BOHR,
    BOHR_PER_ANGSTROM,
    atomic_number,
    element,
)


class UnknownNameError(KeyError, ValueError):
    """An unknown molecule or basis name.

    A lookup miss (``KeyError``, as callers have always caught it) that
    is also deterministic bad input (``ValueError``): the CLI reports it
    with the known names, ``repro submit`` rejects it, and the service
    worker quarantines it instead of retrying.
    """

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return str(self.args[0])


@dataclass(frozen=True)
class Atom:
    """A single atom: element symbol + position in bohr."""

    symbol: str
    position: tuple[float, float, float]

    @property
    def number(self) -> int:
        return atomic_number(self.symbol)


@dataclass
class Molecule:
    """An ordered collection of atoms with an overall charge.

    Parameters
    ----------
    atoms:
        Sequence of :class:`Atom` (positions in bohr).
    charge:
        Total molecular charge; the electron count is
        ``sum(Z) - charge``.
    name:
        Optional human-readable label used in reports.
    """

    atoms: list[Atom] = field(default_factory=list)
    charge: int = 0
    name: str = ""

    #: pairwise distance (bohr) below which two atoms count as coincident
    COINCIDENCE_TOL = 1e-6

    def __post_init__(self) -> None:
        # coincident atoms make the overlap matrix exactly singular and
        # the nuclear repulsion infinite; reject them at construction
        # with a field-named error instead of failing deep in the SCF
        r = self.coords
        for i in range(len(self.atoms) - 1):
            d = np.linalg.norm(r[i + 1:] - r[i], axis=1)
            j = int(np.argmin(d)) + i + 1 if d.size else -1
            if d.size and float(d.min()) < self.COINCIDENCE_TOL:
                raise ValueError(
                    f"atoms[{j}] ({self.atoms[j].symbol}) coincides with "
                    f"atoms[{i}] ({self.atoms[i].symbol}): distance "
                    f"{float(d.min()):.3e} bohr is below the "
                    f"{self.COINCIDENCE_TOL:.0e} bohr coincidence tolerance"
                )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        symbols: list[str],
        coords_angstrom: np.ndarray,
        name: str = "",
    ) -> "Molecule":
        """Build a neutral molecule from parallel arrays of symbols and
        Angstrom coordinates."""
        coords = np.asarray(coords_angstrom, dtype=float)
        if coords.shape != (len(symbols), 3):
            raise ValueError(
                f"coords shape {coords.shape} does not match {len(symbols)} symbols"
            )
        atoms = [
            Atom(element(s).symbol, tuple(float(x) for x in xyz * BOHR_PER_ANGSTROM))
            for s, xyz in zip(symbols, coords)
        ]
        return cls(atoms=atoms, name=name)

    # -- basic properties ---------------------------------------------------

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    @property
    def symbols(self) -> list[str]:
        return [a.symbol for a in self.atoms]

    @property
    def numbers(self) -> np.ndarray:
        """Atomic numbers as an int array."""
        return np.array([a.number for a in self.atoms], dtype=int)

    @property
    def coords(self) -> np.ndarray:
        """Positions in bohr, shape (natoms, 3)."""
        return np.array([a.position for a in self.atoms], dtype=float)

    @property
    def coords_angstrom(self) -> np.ndarray:
        return self.coords * ANGSTROM_PER_BOHR

    @property
    def nelectrons(self) -> int:
        return int(self.numbers.sum()) - self.charge

    @property
    def formula(self) -> str:
        """Hill-convention molecular formula, e.g. ``C6H6``."""
        counts: dict[str, int] = {}
        for s in self.symbols:
            counts[s] = counts.get(s, 0) + 1
        parts: list[str] = []
        for s in ("C", "H"):
            if s in counts:
                n = counts.pop(s)
                parts.append(s + (str(n) if n > 1 else ""))
        for s in sorted(counts):
            n = counts[s]
            parts.append(s + (str(n) if n > 1 else ""))
        return "".join(parts)

    def geometry_hash(self) -> str:
        """Digest of symbols + exact coordinates + charge.

        Distinguishes geometry-distinct conformers that share a formula
        (the formula alone is *not* an identity -- see the benchmark
        harness's setup cache).
        """
        h = hashlib.sha256(str(self.charge).encode())
        h.update(" ".join(self.symbols).encode())
        h.update(np.ascontiguousarray(self.coords, dtype=np.float64).tobytes())
        return h.hexdigest()[:16]

    # -- energies / geometry -------------------------------------------------

    def nuclear_repulsion(self) -> float:
        """Classical Coulomb repulsion of the point nuclei, in hartree."""
        z = self.numbers.astype(float)
        r = self.coords
        e = 0.0
        for i in range(self.natoms):
            d = np.linalg.norm(r[i + 1 :] - r[i], axis=1)
            if np.any(d < 1e-8):
                raise ValueError("coincident nuclei")
            e += float(np.sum(z[i] * z[i + 1 :] / d))
        return e

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.formula
        return f"Molecule({label}, natoms={self.natoms}, charge={self.charge})"

