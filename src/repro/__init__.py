"""repro: a reproduction of "A New Scalable Parallel Algorithm for Fock
Matrix Construction" (Liu, Patel, Chow -- IPDPS 2014; the GTFock paper).

Layers (bottom to top):

* :mod:`repro.chem` -- molecules, geometry builders, Gaussian basis sets;
* :mod:`repro.integrals` -- from-scratch integral engines (Boys,
  McMurchie-Davidson, Obara-Saika), Schwarz screening;
* :mod:`repro.scf` -- reference Fock build, RHF, DIIS, purification;
* :mod:`repro.runtime` -- the simulated distributed machine
  (Global-Arrays-style one-sided ops, alpha-beta network accounting);
* :mod:`repro.fock` -- the paper's algorithm (numeric and timing-level)
  and the NWChem baseline (timing-level);
* :mod:`repro.dist` -- SUMMA and distributed purification;
* :mod:`repro.model` -- the Sec III-G performance model;
* :mod:`repro.obs` -- tracing (Perfetto export) and metrics across all
  of the above;
* :mod:`repro.bench` -- experiment drivers for every table and figure.

Quickstart::

    from repro.chem import water
    from repro.scf import RHF
    print(RHF(water()).run().energy)
"""

from repro.chem import BasisSet, Molecule, alkane, graphene_flake, water
from repro.fock import gtfock_build, simulate_gtfock, simulate_nwchem
from repro.scf import RHF

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BasisSet",
    "Molecule",
    "alkane",
    "graphene_flake",
    "water",
    "gtfock_build",
    "simulate_gtfock",
    "simulate_nwchem",
    "RHF",
]
