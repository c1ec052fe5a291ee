"""Benchmark harness: the registry of the paper's artifacts and reference data."""

from repro.bench.experiments import (
    ARTIFACTS,
    Column,
    ExperimentReport,
    Sweep,
    run_cell,
)
from repro.bench.harness import (
    CORE_COUNTS,
    PAPER_TAU,
    MoleculeSetup,
    all_setups,
    benchmark_molecules,
    format_table,
    full_scale,
    molecule_setup,
    paper_setup,
)
from repro.bench.paper_data import (
    FIGURE1,
    MEASURED_CONSTANTS,
    TABLE1_MACHINE,
    TABLE2_MOLECULES,
    TABLE5_T_INT,
)

__all__ = [
    "ARTIFACTS",
    "Column",
    "ExperimentReport",
    "Sweep",
    "run_cell",
    "CORE_COUNTS",
    "PAPER_TAU",
    "MoleculeSetup",
    "all_setups",
    "benchmark_molecules",
    "format_table",
    "full_scale",
    "molecule_setup",
    "paper_setup",
    "FIGURE1",
    "MEASURED_CONSTANTS",
    "TABLE1_MACHINE",
    "TABLE2_MOLECULES",
    "TABLE5_T_INT",
]
