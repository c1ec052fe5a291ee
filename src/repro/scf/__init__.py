"""Sequential self-consistent-field stack: reference Fock build, RHF, DIIS,
purification, and the convergence guard."""

from repro.scf.checkpoint import (
    Checkpoint,
    CheckpointCorruptionWarning,
    load_checkpoint,
    load_latest_intact,
    save_checkpoint,
)
from repro.scf.diis import DIIS
from repro.scf.guard import (
    DEFAULT_LADDER,
    STATES,
    ConvergenceClassifier,
    GuardConfig,
    GuardError,
    GuardEvent,
    Rung,
    SCFGuard,
)
from repro.scf.fock import (
    build_jk,
    fock_matrix,
    hf_electronic_energy,
)
from repro.scf.guess import core_guess
from repro.scf.hf import RHF, SCFDriver, SCFOutcome, SCFResult
from repro.scf.properties import OrbitalSummary, orbital_summary
from repro.scf.orthogonalization import (
    LinearDependenceWarning,
    OrthoInfo,
    density_from_coefficients,
    density_from_fock,
    orthogonalizer,
    orthogonalizer_info,
)
from repro.scf.uhf import UHF, UHFResult
from repro.scf.purification import (
    PurificationResult,
    canonical_step,
    initial_density,
    purify,
)

__all__ = [
    "Checkpoint",
    "CheckpointCorruptionWarning",
    "load_checkpoint",
    "load_latest_intact",
    "save_checkpoint",
    "DEFAULT_LADDER",
    "STATES",
    "ConvergenceClassifier",
    "GuardConfig",
    "GuardError",
    "GuardEvent",
    "Rung",
    "SCFGuard",
    "LinearDependenceWarning",
    "OrthoInfo",
    "orthogonalizer_info",
    "DIIS",
    "build_jk",
    "fock_matrix",
    "hf_electronic_energy",
    "core_guess",
    "RHF",
    "SCFDriver",
    "SCFOutcome",
    "SCFResult",
    "UHF",
    "UHFResult",
    "OrbitalSummary",
    "orbital_summary",
    "density_from_coefficients",
    "density_from_fock",
    "orthogonalizer",
    "PurificationResult",
    "canonical_step",
    "initial_density",
    "purify",
]
