"""Gaussian integral engines: Boys, one-electron, ERIs, screening."""

from repro.integrals.boys import boys, boys_array, boys_quadrature, boys_series, boys_single
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
    SyntheticERIEngine,
)
from repro.integrals.eri_md import eri_shell_quartet, eri_tensor
from repro.integrals.moments import dipole_integrals
from repro.integrals.eri_os import eri_shell_quartet_os
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
    screening_stats,
    unique_significant_quartet_count,
)

__all__ = [
    "boys",
    "boys_array",
    "boys_quadrature",
    "boys_series",
    "boys_single",
    "ERIEngine",
    "MDEngine",
    "OSEngine",
    "SyntheticERIEngine",
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
    "eri_shell_quartet",
    "eri_tensor",
    "dipole_integrals",
    "eri_shell_quartet_os",
    "core_hamiltonian",
    "kinetic",
    "nuclear_attraction",
    "overlap",
    "schwarz_matrix",
    "schwarz_model",
    "screening_stats",
    "unique_significant_quartet_count",
]
