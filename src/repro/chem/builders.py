"""Geometry generators for the paper's molecule families and small demo systems.

The IPDPS 2014 paper evaluates on two families:

* hexagonal graphene-like flakes ``C6n^2 H6n`` (n=2 is coronene C24H12,
  n=4 is C96H24, n=5 is C150H30) -- "2D" test systems;
* linear zigzag alkanes ``CnH2n+2`` (C10H22, C100H202, C144H290) -- "1D"
  chain systems whose screening drops most shell quartets.

Both generators produce standard covalent geometries (C-C aromatic 1.42 A,
C-C alkane 1.54 A, C-H 1.09 A, tetrahedral angles), which is what drives
the Cauchy-Schwarz screening structure the paper's algorithm exploits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem.molecule import Molecule, UnknownNameError

#: Aromatic C-C bond length (Angstrom), graphene/benzene.
CC_AROMATIC = 1.42
#: Alkane C-C single-bond length (Angstrom).
CC_SINGLE = 1.54
#: C-H bond length (Angstrom).
CH_BOND = 1.09
#: Tetrahedral angle in radians.
TETRAHEDRAL = math.acos(-1.0 / 3.0)


# ---------------------------------------------------------------------------
# graphene flakes
# ---------------------------------------------------------------------------


def graphene_flake(n: int) -> Molecule:
    """Hexagonal graphene flake ``C6n^2 H6n`` (circumcoronene series).

    ``n=2`` gives coronene C24H12; ``n=4`` gives C96H24; ``n=5`` gives
    C150H30 -- the paper's 2D test molecules.  The flake is the union of
    the centred-hexagonal arrangement of ``3n^2 - 3n + 1`` benzene rings,
    with every edge carbon (2 carbon neighbours) terminated by one H.

    Parameters
    ----------
    n:
        Flake order, ``n >= 1``.
    """
    if n < 1:
        raise ValueError(f"flake order must be >= 1, got {n}")
    d = CC_AROMATIC
    # hexagon-centre lattice vectors (centre-to-centre distance sqrt(3) d)
    u = np.array([math.sqrt(3.0) * d, 0.0])
    v = np.array([math.sqrt(3.0) * d / 2.0, 1.5 * d])
    centers = [
        q * u + r * v
        for q in range(-(n - 1), n)
        for r in range(-(n - 1), n)
        if max(abs(q), abs(r), abs(q + r)) <= n - 1
    ]
    # hexagon vertices at angles 30 + 60k degrees, distance d from centre
    vert_offsets = np.array(
        [
            [d * math.cos(math.radians(30 + 60 * k)), d * math.sin(math.radians(30 + 60 * k))]
            for k in range(6)
        ]
    )
    seen: dict[tuple[int, int], np.ndarray] = {}
    for c in centers:
        for off in vert_offsets:
            p = c + off
            key = (round(p[0] * 1000), round(p[1] * 1000))
            if key not in seen:
                seen[key] = p
    carbons = np.array(list(seen.values()))
    expected = 6 * n * n
    if len(carbons) != expected:
        raise AssertionError(
            f"flake construction produced {len(carbons)} carbons, expected {expected}"
        )

    # hydrogens: every carbon with exactly 2 carbon neighbours gets one H
    # pointing away from the bisector of its two bonds.
    symbols: list[str] = ["C"] * len(carbons)
    coords: list[np.ndarray] = [np.array([p[0], p[1], 0.0]) for p in carbons]
    cutoff = 1.2 * d
    for i, p in enumerate(carbons):
        delta = carbons - p
        dist = np.hypot(delta[:, 0], delta[:, 1])
        nbr = np.where((dist > 1e-6) & (dist < cutoff))[0]
        if len(nbr) == 2:
            bisector = (carbons[nbr[0]] - p) + (carbons[nbr[1]] - p)
            direction = -bisector / np.linalg.norm(bisector)
            h = p + CH_BOND * direction
            symbols.append("H")
            coords.append(np.array([h[0], h[1], 0.0]))
        elif len(nbr) not in (2, 3):
            raise AssertionError(f"carbon {i} has {len(nbr)} neighbours")
    nh = sum(1 for s in symbols if s == "H")
    if nh != 6 * n:
        raise AssertionError(f"flake has {nh} hydrogens, expected {6 * n}")
    return Molecule.from_arrays(symbols, np.array(coords), name=f"C{expected}H{6*n}")


# ---------------------------------------------------------------------------
# alkanes
# ---------------------------------------------------------------------------


def alkane(n: int) -> Molecule:
    """Linear zigzag alkane ``CnH2n+2``.

    ``n=10`` gives C10H22 (Table V); ``n=100`` gives C100H202 and
    ``n=144`` gives C144H290 -- the paper's 1D test molecules.

    The carbon backbone zigzags in the xz-plane with tetrahedral angles;
    each CH2 carries two out-of-plane hydrogens and each terminal CH3
    three tetrahedrally arranged hydrogens.
    """
    if n < 1:
        raise ValueError(f"alkane length must be >= 1, got {n}")
    if n == 1:
        return methane()

    half = TETRAHEDRAL / 2.0
    dx = CC_SINGLE * math.sin(half)
    dz = CC_SINGLE * math.cos(half)
    carbons = np.array([[i * dx, 0.0, (i % 2) * dz] for i in range(n)])

    symbols: list[str] = ["C"] * n
    coords: list[np.ndarray] = [c for c in carbons]

    alpha = TETRAHEDRAL / 2.0  # half the H-C-H angle
    for i in range(n):
        c = carbons[i]
        if 0 < i < n - 1:
            b1 = _unit(carbons[i - 1] - c)
            b2 = _unit(carbons[i + 1] - c)
            u = _unit(b1 + b2)
            w = _unit(np.cross(b1, b2))
            for sgn in (+1.0, -1.0):
                hdir = _unit(-u * math.cos(alpha) + sgn * w * math.sin(alpha))
                symbols.append("H")
                coords.append(c + CH_BOND * hdir)
        else:
            nbr = carbons[1] if i == 0 else carbons[n - 2]
            b = _unit(nbr - c)
            e1 = _perpendicular(b)
            e2 = np.cross(b, e1)
            ct, st = math.cos(TETRAHEDRAL), math.sin(TETRAHEDRAL)
            for k in range(3):
                phi = 2.0 * math.pi * k / 3.0 + (0.0 if i == 0 else math.pi / 3.0)
                hdir = b * ct + st * (e1 * math.cos(phi) + e2 * math.sin(phi))
                symbols.append("H")
                coords.append(c + CH_BOND * hdir)
    nh = len(symbols) - n
    if nh != 2 * n + 2:
        raise AssertionError(f"alkane has {nh} hydrogens, expected {2 * n + 2}")
    return Molecule.from_arrays(symbols, np.array(coords), name=f"C{n}H{2*n+2}")


# ---------------------------------------------------------------------------
# small demo molecules
# ---------------------------------------------------------------------------


def h2(bond_angstrom: float = 0.7414) -> Molecule:
    """Hydrogen molecule at the given bond length (default: experimental)."""
    return Molecule.from_arrays(
        ["H", "H"], np.array([[0.0, 0.0, 0.0], [0.0, 0.0, bond_angstrom]]), name="H2"
    )


def water() -> Molecule:
    """A single water molecule (experimental-ish geometry)."""
    r = 0.9572
    theta = math.radians(104.52)
    return Molecule.from_arrays(
        ["O", "H", "H"],
        np.array(
            [
                [0.0, 0.0, 0.0],
                [r, 0.0, 0.0],
                [r * math.cos(theta), r * math.sin(theta), 0.0],
            ]
        ),
        name="H2O",
    )


def methane() -> Molecule:
    """Methane CH4, tetrahedral."""
    a = CH_BOND / math.sqrt(3.0)
    return Molecule.from_arrays(
        ["C", "H", "H", "H", "H"],
        np.array(
            [
                [0.0, 0.0, 0.0],
                [a, a, a],
                [a, -a, -a],
                [-a, a, -a],
                [-a, -a, a],
            ]
        ),
        name="CH4",
    )


def benzene() -> Molecule:
    """Benzene C6H6 (planar hexagon)."""
    symbols: list[str] = []
    coords: list[list[float]] = []
    for k in range(6):
        ang = math.pi * k / 3.0
        symbols.append("C")
        coords.append([CC_AROMATIC * math.cos(ang), CC_AROMATIC * math.sin(ang), 0.0])
    rc = CC_AROMATIC + CH_BOND
    for k in range(6):
        ang = math.pi * k / 3.0
        symbols.append("H")
        coords.append([rc * math.cos(ang), rc * math.sin(ang), 0.0])
    return Molecule.from_arrays(symbols, np.array(coords), name="C6H6")


def water_cluster(nx: int, ny: int, nz: int, spacing: float = 2.8) -> Molecule:
    """A rectangular grid of water molecules (heterogeneous 3D demo system).

    Used by examples to show how densely packed 3D systems increase the
    average significant-set size B (Sec III-G of the paper).
    """
    base = water()
    symbols: list[str] = []
    coords: list[np.ndarray] = []
    for ix in range(nx):
        for iy in range(ny):
            for iz in range(nz):
                shift = np.array([ix, iy, iz], dtype=float) * spacing
                for s, xyz in zip(base.symbols, base.coords_angstrom):
                    symbols.append(s)
                    coords.append(xyz + shift)
    return Molecule.from_arrays(
        symbols, np.array(coords), name=f"(H2O)_{nx*ny*nz}"
    )


# ---------------------------------------------------------------------------
# paper test-set registry
# ---------------------------------------------------------------------------

#: The paper's Table II molecules, by name.
PAPER_MOLECULES = {
    "C96H24": lambda: graphene_flake(4),
    "C150H30": lambda: graphene_flake(5),
    "C100H202": lambda: alkane(100),
    "C144H290": lambda: alkane(144),
}

#: Scaled-down stand-ins with the same 2D/1D structure, for fast benchmarks.
SCALED_MOLECULES = {
    "C24H12": lambda: graphene_flake(2),
    "C54H18": lambda: graphene_flake(3),
    "C20H42": lambda: alkane(20),
    "C30H62": lambda: alkane(30),
}


#: Small demo molecules every molecule-taking command accepts by name.
DEMO_MOLECULES = {
    "water": water, "h2": h2, "methane": methane, "benzene": benzene,
}


def _build_named(name: str, registry: dict) -> Molecule:
    if name not in registry:
        raise UnknownNameError(
            f"unknown molecule {name!r}; known: {sorted(registry)}"
        )
    return registry[name]()


def paper_molecule(name: str) -> Molecule:
    """Construct one of the paper's molecules (or scaled stand-ins) by name."""
    return _build_named(name, {**PAPER_MOLECULES, **SCALED_MOLECULES})


def molecule_by_name(name: str) -> Molecule:
    """A demo molecule or a paper molecule / stand-in by name: the one
    resolver behind the CLI, the service worker and the chaos harnesses."""
    return _build_named(
        name, {**DEMO_MOLECULES, **PAPER_MOLECULES, **SCALED_MOLECULES}
    )


def _unit(v: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-12:
        raise ValueError("cannot normalize zero vector")
    return v / nrm


def _perpendicular(v: np.ndarray) -> np.ndarray:
    """Any unit vector perpendicular to ``v``."""
    candidate = np.array([0.0, 1.0, 0.0]) if abs(v[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
    w = np.cross(v, candidate)
    return _unit(w)
