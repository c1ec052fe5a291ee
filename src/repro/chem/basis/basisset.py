"""Molecular basis sets: the ordered list of shells for a molecule.

A :class:`BasisSet` fixes the shell indexing the whole library works in:
Fock/density matrices are blocked by shells, tasks are indexed by shell
pairs, and the reordering scheme of Sec III-D is expressed as a
permutation of this list.  Basis functions within a shell are numbered
consecutively, and consecutive shells occupy consecutive function ranges
(the paper's indexing convention, Sec II-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.basis.data_631g import G631_DATA
from repro.chem.basis.data_sto3g import STO3G_DATA
from repro.chem.basis.data_vdzsim import VDZSIM_DATA
from repro.chem.basis.shells import Shell
from repro.chem.molecule import Molecule, UnknownNameError

_L_OF_LETTER = {"S": 0, "P": 1, "D": 2, "F": 3}

#: name -> (raw element data, use pure/spherical d shells)
BASIS_REGISTRY: dict[str, tuple[dict, bool]] = {
    "sto-3g": (STO3G_DATA, False),
    "6-31g": (G631_DATA, False),
    "vdz-sim": (VDZSIM_DATA, True),
}


def _registered(basis_name: str) -> tuple[dict, bool]:
    key = basis_name.lower()
    if key not in BASIS_REGISTRY:
        raise UnknownNameError(
            f"unknown basis {basis_name!r}; known: {sorted(BASIS_REGISTRY)}"
        )
    return BASIS_REGISTRY[key]


def element_shells(basis_name: str, symbol: str) -> list[tuple[int, list, list]]:
    """Expand an element's raw basis entries into (l, exps, coefs) triples.

    Pople ``SP`` entries expand into separate s and p shells sharing
    exponents, matching how every integral code treats them.
    """
    data, _pure = _registered(basis_name)
    if symbol not in data:
        raise UnknownNameError(
            f"basis {basis_name!r} has no data for element {symbol!r}"
        )
    out: list[tuple[int, list, list]] = []
    for entry in data[symbol]:
        kind = entry[0]
        if kind == "SP":
            _, exps, cs, cp = entry
            out.append((0, list(exps), list(cs)))
            out.append((1, list(exps), list(cp)))
        else:
            _, exps, coefs = entry
            out.append((_L_OF_LETTER[kind], list(exps), list(coefs)))
    return out


@dataclass
class BasisSet:
    """The full ordered shell list for a molecule.

    Build with :meth:`BasisSet.build`; reorder with :meth:`permuted`.
    """

    molecule: Molecule
    shells: list[Shell]
    name: str = ""
    #: permutation applied relative to the atom-order shell list (identity
    #: for freshly built sets); ``order[new_index] = original_index``.
    order: np.ndarray | None = None
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = np.array([sh.nbf for sh in self.shells], dtype=int)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._shell_slices: tuple[slice, ...] | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, molecule: Molecule, name: str = "sto-3g") -> "BasisSet":
        """Construct the basis for ``molecule`` in atom order."""
        key = name.lower()
        _data, pure_d = _registered(key)
        shells: list[Shell] = []
        for iat, atom in enumerate(molecule.atoms):
            for l, exps, coefs in element_shells(key, atom.symbol):
                shells.append(
                    Shell(
                        l=l,
                        exps=np.array(exps),
                        coefs=np.array(coefs),
                        center=np.array(atom.position),
                        atom_index=iat,
                        pure=pure_d and l >= 2,
                    )
                )
        return cls(molecule=molecule, shells=shells, name=key)

    # -- shape/index helpers --------------------------------------------------

    @property
    def nshells(self) -> int:
        return len(self.shells)

    @property
    def nbf(self) -> int:
        """Total number of basis functions."""
        return int(self.offsets[-1])

    def shell_slice(self, i: int) -> slice:
        """Function-index slice of shell ``i``."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    @property
    def shell_slices(self) -> tuple[slice, ...]:
        """All function-index slices, cached (hot-path scatter lookups)."""
        if self._shell_slices is None:
            self._shell_slices = tuple(
                self.shell_slice(i) for i in range(self.nshells)
            )
        return self._shell_slices

    def shell_sizes(self) -> np.ndarray:
        """Functions per shell, shape (nshells,)."""
        return np.diff(self.offsets)

    @property
    def centers(self) -> np.ndarray:
        """Shell centers in bohr, shape (nshells, 3)."""
        return np.array([sh.center for sh in self.shells])

    @property
    def atom_of_shell(self) -> np.ndarray:
        return np.array([sh.atom_index for sh in self.shells], dtype=int)

    def atom_shell_lists(self) -> list[list[int]]:
        """Per-atom shell index lists (used by atom-quartet task schemes)."""
        out: list[list[int]] = [[] for _ in range(self.molecule.natoms)]
        for i, sh in enumerate(self.shells):
            out[sh.atom_index].append(i)
        return out

    def min_exponents(self) -> np.ndarray:
        """Most diffuse exponent per shell (drives screening extent)."""
        return np.array([sh.min_exponent() for sh in self.shells])

    # -- reordering ------------------------------------------------------------

    def permuted(self, order: np.ndarray) -> "BasisSet":
        """Return a new BasisSet whose shell ``i`` is this set's ``order[i]``.

        ``order`` must be a permutation of ``range(nshells)``.  Function
        numbering is rebuilt so consecutive shells stay contiguous (the
        reordering scheme of Sec III-D).
        """
        order = np.asarray(order, dtype=int)
        if sorted(order.tolist()) != list(range(self.nshells)):
            raise ValueError("order is not a permutation of the shell indices")
        base = self.order if self.order is not None else np.arange(self.nshells)
        new = BasisSet(
            molecule=self.molecule,
            shells=[self.shells[int(i)] for i in order],
            name=self.name,
            order=base[order],
        )
        return new

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BasisSet({self.name!r}, nshells={self.nshells}, nbf={self.nbf}, "
            f"molecule={self.molecule.name or self.molecule.formula})"
        )
