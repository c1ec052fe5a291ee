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
from repro.integrals.pairdata import (
    PairData,
    ShellPairData,
    StackedPairs,
    build_pair_data,
    stack_pairs,
)
from repro.integrals.store import ERIStore, StoreInvalidatedWarning, basis_fingerprint
from repro.integrals.oneelec import (
    core_hamiltonian,
    kinetic,
    nuclear_attraction,
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
    "StackedPairs",
    "stack_pairs",
    "build_pair_data",
    "core_hamiltonian",
    "kinetic",
    "nuclear_attraction",
    "overlap",
    "schwarz_matrix",
    "schwarz_model",
    "unique_significant_quartet_count",
]
