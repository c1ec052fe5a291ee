"""Chaos harness: prove the Fock build survives injected faults.

Three families, one shape: run the workload fault-free, run it again
under a seeded plan, and hold the pair's ``--json`` payload to the
family's gate -- a pure ``<family>_gate(payload, plan)`` that states
its invariants and detail lines once and returns a
:class:`~repro.runtime.faults.GateResult`.  A plan that injects nothing
is rejected up front (:class:`~repro.runtime.faults.EmptyPlanError`).

* ``runtime`` (:func:`run_chaos`): the numeric GTFock build under a
  :class:`~repro.runtime.faults.FaultPlan` (stragglers, lossy one-sided
  ops, delayed messages, rank deaths), for *any* seeded plan that leaves
  at least one rank alive.  Only the virtual-time accounting may differ:
  retries, re-executed tasks, and extra bytes show up as measurable
  recovery overhead (the ``retry`` flight channel,
  :class:`RecoveryRecord` entries, and the fault-overhead counters),
  never as a numeric change.
* ``scf`` (:func:`run_scf_chaos`): *numerical* faults -- a seeded
  :class:`~repro.runtime.faults.SCFFaultPlan` corrupts class-kernel ERI
  quartet blocks with NaN/Inf inside the production Fock build and the
  per-row sentinel rescues each one on the Obara-Saika kernel.
* ``sdc`` (:func:`run_sdc_chaos`): the *silent* variant -- a seeded
  :class:`~repro.runtime.sdc.SDCFaultPlan` bit-flips on-disk store
  blocks and checkpoint files, exponent-flips in-memory F/D elements,
  and corrupts GA accumulate payloads in flight, none of which raises
  anything on its own: an integrity layer must detect every one.

Driven by the ``repro chaos`` CLI and ``tests/test_faults.py`` /
``tests/test_sdc.py``; the gates are tabulated in ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import tempfile
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from repro.chem.builders import molecule_by_name
from repro.fock.gtfock import gtfock_build
from repro.obs import MetricsRegistry, PhaseProfiler, session
from repro.obs.profile import PHASE_INTEGRITY
from repro.runtime.faults import (
    FaultPlan,
    GateResult,
    SCFFaultPlan,
    landed,
    random_plan,
)
from repro.runtime.machine import LONESTAR
from repro.runtime.sdc import SDCFaultPlan, random_sdc_plan
from repro.scf.fock import fock_matrix, hf_electronic_energy


def _shared(mol, basis_name, plan, tolerance, fock_error, energy_error) -> dict:
    """The ``--json`` keys every Fock-build family leads with.

    ``fock_error`` is max |F_faulted - F_clean| over all elements and
    ``energy_error`` |E_faulted - E_clean| of the one-iteration
    electronic energy (sdc: of the final Fock matrices and the converged
    total energies).
    """
    return {
        "molecule": mol.name or mol.formula, "basis": basis_name,
        "seed": plan.seed, "fock_error": fock_error,
        "energy_error": energy_error, "tolerance": tolerance,
    }


def _errors(hcore, density, faulted, clean) -> dict:
    """``fock_error`` / ``energy_error`` of a faulted one-iteration build."""
    return {
        "fock_error": float(np.max(np.abs(faulted - clean))),
        "energy_error": abs(
            hf_electronic_energy(hcore, faulted, density)
            - hf_electronic_energy(hcore, clean, density)
        ),
    }


def _fock_matches(p: dict) -> tuple[str, bool]:
    return ("max |dF| <= tolerance", p["fock_error"] <= p["tolerance"])


def _fock_lines(p: dict, plan) -> list[str]:
    """The detail lines every Fock-build family leads with."""
    return [
        f"plan: {plan.describe()}",
        f"max |dF| = {p['fock_error']:.3e}  |dE| = "
        f"{p['energy_error']:.3e} Ha (tolerance {p['tolerance']:.0e})",
    ]


def build_inputs(molecule: str, basis_name: str):
    """Molecule-name -> (engine, hcore, density, mol, basis), the same
    input pipeline the run-report driver uses."""
    from repro.chem.basis.basisset import BasisSet
    from repro.fock.reorder import reorder_basis
    from repro.integrals.engine import MDEngine
    from repro.integrals.oneelec import one_electron
    from repro.scf.guess import core_guess
    from repro.scf.orthogonalization import orthogonalizer

    mol = molecule_by_name(molecule)
    basis = reorder_basis(BasisSet.build(mol, basis_name))
    engine = MDEngine(basis)
    s, t, v = one_electron(basis)
    hcore = t + v
    x = orthogonalizer(s)
    density = core_guess(hcore, x, mol.nelectrons // 2)
    return engine, hcore, density, mol, basis


def run_chaos(
    molecule: str = "water",
    basis_name: str = "sto-3g",
    nproc: int = 4,
    seed: int = 0,
    ndeaths: int = 1,
    nstragglers: int = 1,
    op_fail_rate: float = 0.05,
    delay_rate: float = 0.05,
    tolerance: float = 1e-12,
    plan: FaultPlan | None = None,
) -> GateResult:
    """Run the fault-free/faulted build pair and compare.

    When ``plan`` is omitted, a :func:`random_plan` is derived from
    ``seed`` with the fault-free makespan as its horizon, so deaths land
    mid-execution regardless of problem size.  Both builds record into
    the session's tracer; the faulted one is also graded and recorded as
    the run's ``fock_build`` summary key, and its fault counters are
    exported to the session's metrics.
    """
    from repro.obs.metrics import export_faults
    from repro.obs.report import record_build

    engine, hcore, density, mol, basis = build_inputs(molecule, basis_name)
    clean = gtfock_build(engine, hcore, density, nproc)
    if plan is None:
        plan = random_plan(
            seed,
            nproc,
            float(clean.outcome.makespan),
            ndeaths=ndeaths,
            nstragglers=nstragglers,
            op_fail_rate=op_fail_rate,
            delay_rate=delay_rate,
        )
    plan.require_faults()
    faulty = gtfock_build(
        engine, hcore, density, nproc, screen=clean.screen, faults=plan
    )
    export_faults(faulty.faults, faulty.outcome)
    record_build(
        faulty,
        "this run executed under fault injection: model-vs-measured "
        "deviations include recovery overhead by design",
    )
    overhead = faulty.faults.overhead_summary()
    t_clean = float(clean.stats.clock.max())
    t_faulty = float(faulty.stats.clock.max())
    overhead.update(
        dead_ranks=list(faulty.outcome.dead_ranks),
        reexecuted_tasks=int(faulty.outcome.reexecuted_tasks),
        recoveries=len(faulty.outcome.recoveries),
        retry_bytes=int(faulty.stats.flight.per_rank("retry", "bytes").sum()),
        makespan_clean=t_clean,
        makespan_faulty=t_faulty,
        slowdown=t_faulty / t_clean if t_clean > 0 else 1.0,
    )
    errors = _errors(hcore, density, faulty.fock, clean.fock)
    return runtime_gate({
        **_shared(mol, basis_name, plan, tolerance, **errors),
        "nproc": nproc, "overhead": overhead,
    }, plan)


def runtime_gate(payload: dict, plan: FaultPlan) -> GateResult:
    """The ``runtime`` family's gate: a fault landed, and F survived it."""
    o = payload["overhead"]
    faults = (
        len(o["dead_ranks"]) + o["retries_total"] + len(plan.slowdown)
        + bool(o["delay_time_total"])
    )
    return GateResult.stamped("chaos", [landed(faults), _fock_matches(payload)], [
        *_fock_lines(payload, plan),
        f"dead ranks: {o['dead_ranks']}  "
        f"re-executed tasks: {o['reexecuted_tasks']}  "
        f"recoveries: {o['recoveries']}",
        f"retries: {o['retries_total']}  "
        f"acks lost: {o['acks_lost_total']}  "
        f"retry bytes: {o['retry_bytes']}",
        f"makespan: {o['makespan_clean']:.4g} s clean -> "
        f"{o['makespan_faulty']:.4g} s under faults "
        f"(x{o['slowdown']:.2f})",
    ], payload)


def run_scf_chaos(
    molecule: str = "water",
    basis_name: str = "sto-3g",
    seed: int = 0,
    quartet_nan_rate: float = 0.05,
    tolerance: float = 1e-12,
    plan: SCFFaultPlan | None = None,
) -> GateResult:
    """The ``scf`` fault family's invariant gate.

    Builds the Fock matrix twice from identical inputs on the MD engine,
    both times through the production class path -- once clean, once
    with a seeded :class:`~repro.runtime.faults.SCFFaultPlan` corrupting
    the class kernel's blocks and the per-quartet NaN/Inf sentinel armed
    -- and verifies every corruption was rescued (recomputed on the
    reference kernel) with ``max |dF| <= tolerance``.
    """
    engine, hcore, density, mol, basis = build_inputs(molecule, basis_name)
    clean = fock_matrix(engine, hcore, density)
    if plan is None:
        plan = SCFFaultPlan(
            seed=seed,
            quartet_nan_rate=quartet_nan_rate / 2,
            quartet_inf_rate=quartet_nan_rate / 2,
        )
    plan.require_faults()
    faulty_engine, *_ = build_inputs(molecule, basis_name)
    fstate = plan.activate()
    faulty_engine.scf_faults = fstate
    faulty_engine.finite_check = True
    rescued = fock_matrix(faulty_engine, hcore, density)
    errors = _errors(hcore, density, rescued, clean)
    return scf_gate({
        "family": "scf", **_shared(mol, basis_name, plan, tolerance, **errors),
        "quartets_corrupted": fstate.quartets_corrupted,
        "eri_rescues": faulty_engine.eri_rescues,
    }, plan)


def scf_gate(payload: dict, plan: SCFFaultPlan) -> GateResult:
    """The ``scf`` family's gate: every corrupted class-kernel block was
    rescued (recomputed on the Obara-Saika kernel), and F matches."""
    corrupted, rescued = payload["quartets_corrupted"], payload["eri_rescues"]
    return GateResult.stamped("scf chaos", [
        landed(corrupted),
        _fock_matches(payload),
        ("every corrupted block rescued", rescued >= corrupted),
    ], [
        *_fock_lines(payload, plan),
        f"corrupted quartet blocks: {corrupted}  "
        f"rescued on reference kernel: {rescued}",
    ], payload)


def run_sdc_chaos(
    molecule: str = "water",
    basis_name: str = "6-31g",
    seed: int = 0,
    tolerance: float = 1e-12,
    plan: SDCFaultPlan | None = None,
    workdir: str | Path | None = None,
) -> GateResult:
    """The ``sdc`` fault family's zero-silent-acceptance gate.

    Five phases in one work directory (a temporary one unless
    ``workdir`` is given -- pass one to keep the corrupted tree for a
    ``repro verify`` audit):

    1. a clean stored-integral SCF run fills ``store/`` and writes
       clean checkpoints -- the trajectory baseline;
    2. fault-free integrity control: the same run, warm store,
       integrity on -- the zero-false-positive check, and its
       ``integrity`` phases' share of its wall (``overhead``);
    3. the plan bit-flips on-disk store blocks;
    4. the corrupted run: same inputs, ``integrity=True``, sdc faults
       flipping F/D elements in memory and checkpoint files post-write,
       every store read CRC-verified -- must finish with F and E equal
       to the clean run's to ``tolerance`` (all recoveries recompute
       bitwise-identical data) and an intact snapshot still loadable;
    5. a checksummed :class:`~repro.runtime.ga.GlobalArray` under
       in-flight payload corruption at the plan's ``payload_flip_rate``
       -- every reject retransmitted, the final array exactly equal to
       the expected sum.
    """
    from repro.obs.verify import VerifyReport, audit_checkpoints
    from repro.runtime.ga import GlobalArray, block_bounds
    from repro.runtime.network import CommStats
    from repro.scf.checkpoint import load_latest_intact
    from repro.scf.hf import RHF

    if plan is None:
        plan = random_sdc_plan(seed)
    plan.require_faults()
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sdc-")
        workdir = tmp.name
    workdir = Path(workdir)
    store_dir = workdir / "store"
    ckpt_clean = workdir / "ckpt-clean"
    ckpt_sdc = workdir / "ckpt-sdc"
    try:
        mol = molecule_by_name(molecule)
        rhf = partial(RHF, mol, basis_name=basis_name, integral_store=str(store_dir))

        # 1. clean baseline (fills + finalizes the store)
        clean = rhf(checkpoint_dir=str(ckpt_clean)).run()

        # 2. fault-free control on the warm store: the false-positive gate
        #    (detections here must be zero) and the integrity share of
        #    its wall, profiled into a private registry
        profiler = PhaseProfiler()
        with session(profiler=profiler, metrics=MetricsRegistry()):
            t0 = time.perf_counter()
            control = rhf(integrity=True).run()
            wall = time.perf_counter() - t0
        false_positives = control.integrity_summary["detections_total"]

        # 3. silently rot the on-disk store
        store_state = plan.activate()
        store_state.corrupt_store_dir(store_dir)

        # 4. the corrupted run: detectors armed, sdc matrix/file faults
        sdc_result = rhf(checkpoint_dir=str(ckpt_sdc), integrity=True, sdc_faults=plan).run()
        summary = sdc_result.integrity_summary
        detections, injections = summary["detections"], summary["injections"]

        # offline checkpoint audit: every flipped file must fail
        # verification, and an intact snapshot must still be loadable
        ckpt_detected = audit_checkpoints(ckpt_sdc, VerifyReport(str(ckpt_sdc)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            checkpoint_intact = load_latest_intact(ckpt_sdc) is not None

        # 5. checksummed GA accumulates under in-flight corruption
        ga_plan = SDCFaultPlan(
            seed=plan.seed, payload_flip_rate=plan.payload_flip_rate
        )
        ga_state = ga_plan.activate()
        rng = np.random.default_rng(plan.seed)
        n = 12
        bounds = block_bounds(n, 2)
        stats = CommStats(4, LONESTAR)
        ga = GlobalArray(
            stats, n, n, bounds, bounds, checksums=True, sdc=ga_state
        )
        expected = np.zeros((n, n))
        for k in range(32):
            r0, c0 = int(rng.integers(n - 4)), int(rng.integers(n - 4))
            block = rng.standard_normal((4, 4))
            ga.acc(k % 4, r0, c0, block, tag=("sdc", k))
            expected[r0:r0 + 4, c0:c0 + 4] += block
        ga_error = float(np.max(np.abs(ga.to_numpy() - expected)))

        injected = {
            "store_block": int(store_state.blocks_corrupted),
            "checkpoint": injections["files_corrupted"],
            "matrix": injections["matrices_corrupted"],
            "ga_payload": int(ga_state.payloads_corrupted),
        }
        detected = {
            "store_block": int(detections.get("store_block", 0)),
            "checkpoint": int(ckpt_detected),
            "matrix": int(
                detections.get("fock_matrix", 0)
                + detections.get("density_matrix", 0)
            ),
            "ga_payload": int(ga.checksum_rejects),
        }
        return sdc_gate({
            "family": "sdc",
            **_shared(
                mol, basis_name, plan, tolerance,
                fock_error=float(np.max(np.abs(sdc_result.fock - clean.fock))),
                energy_error=abs(sdc_result.energy - clean.energy),
            ),
            "injected": injected,
            "detected": detected,
            "false_positives": int(false_positives),
            "ga_error": ga_error,
            "checkpoint_intact": checkpoint_intact,
            # the integrity layer's share of the fault-free warm run
            "overhead": profiler.wall(PHASE_INTEGRITY) / wall,
        }, plan)
    finally:
        if tmp is not None:
            tmp.cleanup()


def sdc_gate(payload: dict, plan: SDCFaultPlan) -> GateResult:
    """The ``sdc`` family's gate: zero silent acceptances.

    ``injected`` / ``detected`` count corruptions per kind
    (``store_block``, ``checkpoint``, ``matrix``, ``ga_payload``); the
    gate adds ``silent[k] = max(0, injected[k] - detected[k])`` to the
    payload and demands every entry be zero -- a corruption nobody
    noticed is exactly the failure mode this family exists to rule out.
    """
    injected, detected = payload["injected"], payload["detected"]
    silent = {k: max(0, n - detected.get(k, 0)) for k, n in injected.items()}
    p = {**payload, "silent": silent}
    return GateResult.stamped("sdc chaos", [
        landed(sum(injected.values())),
        ("no silent corruption", sum(silent.values()) == 0),
        ("no false positive on the clean run", p["false_positives"] == 0),
        _fock_matches(p),
        ("|dE| <= tolerance", p["energy_error"] <= p["tolerance"]),
        ("GA exact after retransmits", p["ga_error"] == 0.0),
        ("an intact checkpoint survives", p["checkpoint_intact"]),
    ], [
        *_fock_lines(p, plan),
        *(
            f"{kind}: injected {injected.get(kind, 0)}  "
            f"detected {detected.get(kind, 0)}  "
            + ("SILENT %d" % silent[kind] if silent.get(kind) else "silent 0")
            for kind in sorted(set(injected) | set(detected))
        ),
        f"false positives on clean run: {p['false_positives']}",
        f"GA after retransmits: max error {p['ga_error']:.3e}  "
        f"intact checkpoint survives: {p['checkpoint_intact']}",
        f"integrity overhead (fault-free, warm store): "
        f"{p['overhead'] * 100:.1f}%",
    ], p)
