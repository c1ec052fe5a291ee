"""Periodic-table data for the elements this library works with.

Only light elements are needed for the paper's test systems (graphene-like
flakes and alkanes: C, H), but the common first rows are included so that
examples (water, methane, small organics) work naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bohr radius in Angstrom; geometries are built in Angstrom and converted.
BOHR_PER_ANGSTROM = 1.0 / 0.52917721092
ANGSTROM_PER_BOHR = 0.52917721092


@dataclass(frozen=True)
class Element:
    """Static per-element data.

    Attributes
    ----------
    symbol:
        Chemical symbol, e.g. ``"C"``.
    number:
        Atomic number Z.
    covalent_radius:
        Covalent radius in Angstrom (used by geometry sanity checks).
    """

    symbol: str
    number: int
    covalent_radius: float


_ELEMENT_TABLE: tuple[Element, ...] = (
    Element("H", 1, 0.31),
    Element("He", 2, 0.28),
    Element("Li", 3, 1.28),
    Element("Be", 4, 0.96),
    Element("B", 5, 0.84),
    Element("C", 6, 0.76),
    Element("N", 7, 0.71),
    Element("O", 8, 0.66),
    Element("F", 9, 0.57),
    Element("Ne", 10, 0.58),
    Element("Na", 11, 1.66),
    Element("Mg", 12, 1.41),
    Element("Al", 13, 1.21),
    Element("Si", 14, 1.11),
    Element("P", 15, 1.07),
    Element("S", 16, 1.05),
    Element("Cl", 17, 1.02),
    Element("Ar", 18, 1.06),
)

ELEMENTS_BY_SYMBOL: dict[str, Element] = {e.symbol: e for e in _ELEMENT_TABLE}
ELEMENTS_BY_NUMBER: dict[int, Element] = {e.number: e for e in _ELEMENT_TABLE}


def element(key: str | int) -> Element:
    """Look up an element by symbol (case-insensitive) or atomic number.

    Raises
    ------
    KeyError
        If the element is not in the supported table (H..Ar).
    """
    if isinstance(key, str):
        sym = key.strip().capitalize()
        if sym not in ELEMENTS_BY_SYMBOL:
            raise KeyError(f"unknown element symbol {key!r}")
        return ELEMENTS_BY_SYMBOL[sym]
    if key not in ELEMENTS_BY_NUMBER:
        raise KeyError(f"unknown atomic number {key!r}")
    return ELEMENTS_BY_NUMBER[key]


def atomic_number(symbol: str) -> int:
    """Atomic number Z for a chemical symbol."""
    return element(symbol).number
