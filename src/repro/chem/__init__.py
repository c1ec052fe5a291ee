"""Chemistry substrate: molecules, geometry builders, and basis sets."""

from repro.chem.basis import BasisSet, Shell
from repro.chem.builders import (
    PAPER_MOLECULES,
    SCALED_MOLECULES,
    alkane,
    benzene,
    graphene_flake,
    h2,
    methane,
    molecule_by_name,
    paper_molecule,
    water,
    water_cluster,
)
from repro.chem.elements import Element, atomic_number, element, symbol_of
from repro.chem.molecule import Atom, Molecule

__all__ = [
    "BasisSet",
    "Shell",
    "PAPER_MOLECULES",
    "SCALED_MOLECULES",
    "alkane",
    "benzene",
    "graphene_flake",
    "h2",
    "methane",
    "molecule_by_name",
    "paper_molecule",
    "water",
    "water_cluster",
    "Element",
    "atomic_number",
    "element",
    "symbol_of",
    "Atom",
    "Molecule",
]
