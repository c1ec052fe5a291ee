"""Gaussian integral engines: Boys, one-electron, ERIs, screening."""

from repro.integrals.boys import boys, boys_array
from repro.integrals.class_batch import (
    ClassBatch,
    ClassPlan,
    build_class_plan,
    jk_from_plan,
)
from repro.integrals.engine import (
    ERIEngine,
    MDEngine,
    OSEngine,
)
from repro.integrals.pairdata import PairData, ShellPairData
from repro.integrals.store import ERIStore, StoreInvalidatedWarning, basis_fingerprint
from repro.integrals.oneelec import (
    core_hamiltonian,
    one_electron,
    overlap,
)
from repro.integrals.schwarz import (
    schwarz_matrix,
    schwarz_model,
    unique_significant_quartet_count,
)

__all__ = [
    "boys",
    "boys_array",
    "ERIEngine",
    "MDEngine",
    "OSEngine",
    "ClassBatch",
    "ClassPlan",
    "ERIStore",
    "StoreInvalidatedWarning",
    "basis_fingerprint",
    "build_class_plan",
    "jk_from_plan",
    "PairData",
    "ShellPairData",
    "core_hamiltonian",
    "one_electron",
    "overlap",
    "schwarz_matrix",
    "schwarz_model",
    "unique_significant_quartet_count",
]
