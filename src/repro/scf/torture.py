"""SCF torture suite: pathological cases the convergence guard must survive.

Each :class:`TortureCase` is a geometry / driver configuration known to
break vanilla SCF -- period-2 density oscillators (stretched water
without DIIS), slow near-dissociation convergence that exhausts a
realistic iteration budget, a near-singular overlap matrix, and seeded
NaN/Inf fault injection (:class:`~repro.runtime.faults.SCFFaultPlan`).

The pass criterion is the PR's acceptance gate: under the guard, every
case either **converges** or **terminates with a classified, actionable
GuardEvent trail** -- a finite final energy and a typed event history,
never a NaN energy and never silent ``max_iter`` exhaustion.

Run via ``repro torture`` (``--quick`` for the CI subset) or
:func:`run_torture` directly; ``tests/test_guard.py`` pins the rescue
cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.chem.molecule import Molecule
from repro.runtime.faults import GateResult, SCFFaultPlan
from repro.scf.guard import GuardError
from repro.scf.hf import RHF


def stretched_water(factor: float) -> Molecule:
    """Water with both OH bonds scaled by ``factor`` (Angstrom geometry).

    Around 2x the equilibrium bond length, plain fixed-point SCF turns
    into a perfect period-2 density oscillator; with DIIS, convergence
    survives longer but slows enough to exhaust realistic iteration
    budgets near 3x.
    """
    base = np.array(
        [[0.0, 0.0, 0.1173], [0.0, 0.7572, -0.4692], [0.0, -0.7572, -0.4692]]
    )
    o = base[0]
    coords = base.copy()
    for i in (1, 2):
        coords[i] = o + factor * (base[i] - o)
    return Molecule.from_arrays(
        ["O", "H", "H"], coords, name=f"water_x{factor:g}"
    )


def near_singular_h4() -> Molecule:
    """An H4 chain with one near-coincident pair (1e-4 Angstrom).

    The overlap matrix is numerically near-singular (condition well
    above 1e8), which must trip the orthogonalizer's automatic switch to
    canonical orthogonalization instead of amplifying noise through
    ``S^{-1/2}``.
    """
    coords = np.array(
        [[0.0, 0.0, 0.0], [1e-4, 0.0, 0.0], [0.0, 0.0, 0.9], [0.0, 0.0, 1.8]]
    )
    return Molecule.from_arrays(["H", "H", "H", "H"], coords, name="h4_near_singular")


@dataclass(frozen=True)
class TortureCase:
    """One pathological SCF configuration plus its iteration budget."""

    name: str
    description: str
    make_molecule: Callable[[], Molecule]
    use_diis: bool = True
    max_iter: int = 100
    faults: SCFFaultPlan | None = None
    #: included in ``--quick`` (CI) runs
    quick: bool = True


TORTURE_CASES: tuple[TortureCase, ...] = (
    TortureCase(
        name="oscillator_x2.0",
        description="stretched water (2.0x OH), no DIIS: period-2 oscillator",
        make_molecule=lambda: stretched_water(2.0),
        use_diis=False,
        max_iter=300,
    ),
    TortureCase(
        name="oscillator_x2.5",
        description="stretched water (2.5x OH), no DIIS: period-2 oscillator",
        make_molecule=lambda: stretched_water(2.5),
        use_diis=False,
        max_iter=200,
        quick=False,
    ),
    TortureCase(
        name="stretched_diis_x3.0",
        description="near-dissociated water (3.0x OH), DIIS stalls past budget",
        make_molecule=lambda: stretched_water(3.0),
        use_diis=True,
        max_iter=100,
    ),
    TortureCase(
        name="near_singular_overlap",
        description="H4 with a 1e-4 A pair: overlap condition > 1e8",
        make_molecule=near_singular_h4,
        use_diis=True,
        max_iter=100,
    ),
    TortureCase(
        name="nan_quartets",
        description="seeded NaN/Inf corruption of batched ERI blocks",
        make_molecule=lambda: stretched_water(1.0),
        use_diis=True,
        max_iter=60,
        faults=SCFFaultPlan(
            seed=11,
            quartet_nan_rate=0.02,
            quartet_inf_rate=0.02,
            max_corruptions=64,
        ),
    ),
    TortureCase(
        name="nan_fock",
        description="NaN injected into the Fock matrix at iterations 2 and 4",
        make_molecule=lambda: stretched_water(1.0),
        use_diis=True,
        max_iter=60,
        faults=SCFFaultPlan(seed=5, fock_nan_iterations=(2, 4)),
    ),
    TortureCase(
        name="nan_density",
        description="NaN injected into the density matrix at iteration 3",
        make_molecule=lambda: stretched_water(1.0),
        use_diis=True,
        max_iter=60,
        faults=SCFFaultPlan(seed=7, density_nan_iterations=(3,)),
    ),
)


def run_case(case: TortureCase, vanilla: bool = True) -> dict:
    """Run one case (STO-3G) under the guard (and optionally without, for
    contrast); returns its ``repro torture --json`` record, not yet
    judged (:func:`torture_gate` adds ``status`` and ``passed``)."""
    vanilla_converged = None
    if vanilla:
        res_v = RHF(
            case.make_molecule(),
            basis_name="sto-3g",
            use_diis=case.use_diis,
            max_iter=case.max_iter,
        ).run()
        vanilla_converged = bool(
            res_v.converged and np.isfinite(res_v.energy)
        )
    rhf = RHF(
        case.make_molecule(),
        basis_name="sto-3g",
        use_diis=case.use_diis,
        max_iter=case.max_iter,
        guard=True,
        faults=case.faults,
    )
    try:
        res = rhf.run()
        converged, energy, iterations = bool(res.converged), res.energy, res.iterations
        aborted, reason, guard, events = False, "", res.guard_summary, res.guard_events
    except GuardError as exc:
        converged, energy, iterations = False, float("nan"), 0
        aborted, reason, guard, events = True, str(exc), None, exc.events
    return {
        "case": case.name,
        "description": case.description,
        "vanilla_converged": vanilla_converged,
        "converged": converged,
        "energy": float(energy) if np.isfinite(energy) else None,
        "iterations": iterations,
        "aborted": aborted,
        "abort_reason": reason,
        "guard": guard,
        "trail": [ev.describe() for ev in events],
    }


def _judged(r: dict) -> dict:
    """``r`` with its ``status`` and ``passed``: the acceptance gate is
    converge, or fail *with an explanation* (a classified abort or a
    non-empty typed event trail) and a finite energy."""
    classified = bool(r["trail"]) or r["aborted"]
    finite = r["energy"] is not None
    if r["converged"]:
        status, passed = "converged", finite
    elif r["aborted"]:
        status, passed = "aborted(classified)", True
    else:
        status = "classified" if classified else "UNEXPLAINED"
        passed = classified and finite
    return {**r, "status": status, "passed": passed}


def torture_gate(records: list[dict]) -> GateResult:
    """The suite's gate: one invariant per case, and a fixed-width
    summary table, one line per case."""
    records = [_judged(r) for r in records]
    lines = [
        f"{'case':<24} {'vanilla':<8} {'guarded':<20} {'iters':>5} "
        f"{'energy (Ha)':>14}  events",
        "-" * 86,
    ]
    for r in records:
        v = r["vanilla_converged"]
        vanilla = "-" if v is None else ("ok" if v else "FAIL")
        energy = "nan" if r["energy"] is None else f"{r['energy']:.6f}"
        lines.append(
            f"{r['case']:<24} {vanilla:<8} {r['status']:<20} "
            f"{r['iterations']:>5} {energy:>14}  {len(r['trail'])}"
        )
    return GateResult(
        "torture",
        tuple(
            (f"{r['case']} converges or ends classified", r["passed"])
            for r in records
        ),
        (*lines, "-" * 86),
        records,
    )


def run_torture(quick: bool = False, vanilla: bool = True) -> GateResult:
    """Run the suite (the ``--quick`` subset in CI) and gate the outcomes."""
    selected = tuple(c for c in TORTURE_CASES if c.quick or not quick)
    return torture_gate([run_case(c, vanilla=vanilla) for c in selected])
