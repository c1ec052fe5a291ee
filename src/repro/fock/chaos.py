"""Chaos harness: prove the Fock build survives injected faults.

Three families, one shape: run the workload fault-free, run it again
under a seeded plan, and hold the pair to the family's gate -- the one
``invariants()`` list of its result class (a :class:`FockGate`), from
which ``passed``, the failure line and the PASS/FAIL summary derive.
A plan that injects nothing is rejected up front
(:class:`~repro.runtime.faults.EmptyPlanError`).

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chem.builders import molecule_by_name
from repro.fock.gtfock import GTFockBuildResult, gtfock_build
from repro.runtime.faults import (
    FaultPlan,
    GateResult,
    SCFFaultPlan,
    random_plan,
)
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.sdc import SDCFaultPlan, random_sdc_plan
from repro.scf.fock import fock_matrix, hf_electronic_energy


@dataclass(kw_only=True)
class FockGate(GateResult):
    """What the three Fock-build gates share: each compares a faulted-
    and-recovered build against the fault-free one."""

    molecule: str
    basis_name: str
    plan: FaultPlan | SCFFaultPlan | SDCFaultPlan
    #: max |F_faulted - F_clean| over all elements (sdc: of the final
    #: Fock matrices)
    fock_error: float
    #: |E_faulted - E_clean| of the one-iteration electronic energy
    #: (sdc: of the converged total energies)
    energy_error: float
    tolerance: float = 1e-12

    #: the ``--json`` keys every Fock-build family leads with
    _shared_keys = (
        "molecule", "basis", "seed", "fock_error", "energy_error", "tolerance",
    )

    @property
    def basis(self) -> str:
        return self.basis_name

    @property
    def seed(self) -> int:
        return self.plan.seed

    def _fock_matches(self) -> tuple[str, bool]:
        return ("max |dF| <= tolerance", self.fock_error <= self.tolerance)

    def family_lines(self) -> list[str]:
        """The family's own measurements, after the shared lines."""
        raise NotImplementedError

    def detail_lines(self) -> list[str]:
        return [
            f"plan: {self.plan.describe()}",
            f"max |dF| = {self.fock_error:.3e}  |dE| = "
            f"{self.energy_error:.3e} Ha (tolerance {self.tolerance:.0e})",
            *self.family_lines(),
        ]


@dataclass
class ChaosResult(FockGate):
    """Fault-free vs faulted build comparison, plus recovery overhead."""

    nproc: int
    clean: GTFockBuildResult
    faulty: GTFockBuildResult
    #: recovery-overhead summary (retries, re-executions, time ratio)
    overhead: dict = field(default_factory=dict)

    gate = "chaos"
    json_keys = FockGate._shared_keys + ("nproc", "passed", "overhead")

    def invariants(self) -> list[tuple[str, bool]]:
        o = self.overhead
        landed = (
            len(o.get("dead_ranks", ())) + o.get("retries_total", 0)
            + len(self.plan.slowdown) + bool(o.get("delay_time_total"))
        )
        return [self.landed(landed), self._fock_matches()]

    def family_lines(self) -> list[str]:
        o = self.overhead
        return [
            f"dead ranks: {o.get('dead_ranks', [])}  "
            f"re-executed tasks: {o.get('reexecuted_tasks', 0)}  "
            f"recoveries: {o.get('recoveries', 0)}",
            f"retries: {o.get('retries_total', 0)}  "
            f"acks lost: {o.get('acks_lost_total', 0)}  "
            f"retry bytes: {o.get('retry_bytes', 0)}",
            f"makespan: {o.get('makespan_clean', 0.0):.4g} s clean -> "
            f"{o.get('makespan_faulty', 0.0):.4g} s under faults "
            f"(x{o.get('slowdown', 1.0):.2f})",
        ]


def _errors(hcore, density, faulted, clean) -> dict:
    """``fock_error`` / ``energy_error`` of a faulted one-iteration build."""
    return {
        "fock_error": float(np.max(np.abs(faulted - clean))),
        "energy_error": abs(
            hf_electronic_energy(hcore, faulted, density)
            - hf_electronic_energy(hcore, clean, density)
        ),
    }


def build_inputs(molecule: str, basis_name: str):
    """Molecule-name -> (engine, hcore, density, mol, basis), the same
    input pipeline the run-report driver uses."""
    from repro.chem.basis.basisset import BasisSet
    from repro.fock.reorder import reorder_basis
    from repro.integrals.engine import MDEngine
    from repro.integrals.oneelec import core_hamiltonian, overlap
    from repro.scf.guess import core_guess
    from repro.scf.orthogonalization import orthogonalizer

    mol = molecule_by_name(molecule)
    basis = reorder_basis(BasisSet.build(mol, basis_name))
    engine = MDEngine(basis)
    hcore = core_hamiltonian(basis)
    x = orthogonalizer(overlap(basis))
    density = core_guess(hcore, x, mol.nelectrons // 2)
    return engine, hcore, density, mol, basis


def run_chaos(
    molecule: str = "water",
    basis_name: str = "sto-3g",
    nproc: int = 4,
    tau: float = 1e-11,
    config: MachineConfig = LONESTAR,
    seed: int = 0,
    ndeaths: int = 1,
    nstragglers: int = 1,
    op_fail_rate: float = 0.05,
    delay_rate: float = 0.05,
    tolerance: float = 1e-12,
    plan: FaultPlan | None = None,
) -> ChaosResult:
    """Run the fault-free/faulted build pair and compare.

    When ``plan`` is omitted, a :func:`random_plan` is derived from
    ``seed`` with the fault-free makespan as its horizon, so deaths land
    mid-execution regardless of problem size.  Both builds record into
    the session's tracer.
    """
    engine, hcore, density, mol, basis = build_inputs(molecule, basis_name)
    clean = gtfock_build(
        engine, hcore, density, nproc, tau=tau, config=config
    )
    horizon = float(clean.outcome.makespan)
    if plan is None:
        plan = random_plan(
            seed,
            nproc,
            horizon,
            ndeaths=ndeaths,
            nstragglers=nstragglers,
            op_fail_rate=op_fail_rate,
            delay_rate=delay_rate,
        )
    plan.require_faults()
    faulty = gtfock_build(
        engine, hcore, density, nproc, tau=tau, config=config,
        screen=clean.screen, faults=plan,
    )
    fstate = faulty.faults
    overhead = dict(fstate.overhead_summary()) if fstate is not None else {}
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
    return ChaosResult(
        molecule=mol.name or mol.formula,
        basis_name=basis_name,
        nproc=nproc,
        plan=plan,
        clean=clean,
        faulty=faulty,
        tolerance=tolerance,
        overhead=overhead,
        **_errors(hcore, density, faulty.fock, clean.fock),
    )


@dataclass
class SCFChaosResult(FockGate):
    """Clean vs NaN-corrupted-and-rescued Fock build comparison."""

    #: class-kernel ERI blocks the plan corrupted
    quartets_corrupted: int
    #: corrupted blocks the sentinel recomputed on the Obara-Saika kernel
    eri_rescues: int

    gate = "scf chaos"
    json_keys = ("family",) + FockGate._shared_keys + (
        "quartets_corrupted", "eri_rescues", "passed",
    )

    def invariants(self) -> list[tuple[str, bool]]:
        return [
            self.landed(self.quartets_corrupted),
            self._fock_matches(),
            ("every corrupted block rescued",
             self.eri_rescues >= self.quartets_corrupted),
        ]

    def family_lines(self) -> list[str]:
        return [
            f"corrupted quartet blocks: {self.quartets_corrupted}  "
            f"rescued on reference kernel: {self.eri_rescues}",
        ]


def run_scf_chaos(
    molecule: str = "water",
    basis_name: str = "sto-3g",
    tau: float = 1e-11,
    seed: int = 0,
    quartet_nan_rate: float = 0.05,
    tolerance: float = 1e-12,
    plan: SCFFaultPlan | None = None,
) -> SCFChaosResult:
    """The ``scf`` fault family's invariant gate.

    Builds the Fock matrix twice from identical inputs on the MD engine,
    both times through the production class path -- once clean, once
    with a seeded :class:`~repro.runtime.faults.SCFFaultPlan` corrupting
    the class kernel's blocks and the per-quartet NaN/Inf sentinel armed
    -- and verifies every corruption was rescued (recomputed on the
    reference kernel) with ``max |dF| <= tolerance``.
    """
    engine, hcore, density, mol, basis = build_inputs(molecule, basis_name)
    clean = fock_matrix(engine, hcore, density, tau)
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
    rescued = fock_matrix(faulty_engine, hcore, density, tau)
    return SCFChaosResult(
        molecule=mol.name or mol.formula,
        basis_name=basis_name,
        plan=plan,
        quartets_corrupted=fstate.quartets_corrupted,
        eri_rescues=faulty_engine.eri_rescues,
        tolerance=tolerance,
        **_errors(hcore, density, rescued, clean),
    )


@dataclass
class SDCChaosResult(FockGate):
    """Clean vs silently-corrupted-and-recovered SCF run comparison.

    ``injected`` / ``detected`` count corruptions per kind
    (``store_block``, ``checkpoint``, ``matrix``, ``ga_payload``);
    ``silent[k] = max(0, injected[k] - detected[k])`` and the gate
    demands every ``silent`` entry be zero -- a corruption nobody
    noticed is exactly the failure mode this family exists to rule out.
    """

    injected: dict = field(default_factory=dict)
    detected: dict = field(default_factory=dict)
    #: detections on the fault-free integrity-on run (must be zero)
    false_positives: int = 0
    #: max |GA - expected| after checksummed accumulates under payload
    #: corruption (must be exactly zero: rejects are retransmitted)
    ga_error: float = 0.0
    #: an intact snapshot survived the checkpoint bit flips
    checkpoint_intact: bool = False
    #: :meth:`IntegrityMonitor.summary` of the corrupted run
    integrity_summary: dict | None = None
    #: fault-free warm-store wall time, integrity off / on
    wall_off_s: float = 0.0
    wall_on_s: float = 0.0

    gate = "sdc chaos"
    json_keys = ("family",) + FockGate._shared_keys + (
        "injected", "detected", "silent", "false_positives", "ga_error",
        "checkpoint_intact", "overhead", "passed",
    )

    @property
    def injections_total(self) -> int:
        return sum(self.injected.values())

    @property
    def silent(self) -> dict:
        return {
            kind: max(0, n - self.detected.get(kind, 0))
            for kind, n in self.injected.items()
        }

    @property
    def silent_total(self) -> int:
        return sum(self.silent.values())

    @property
    def overhead(self) -> float:
        """Fractional integrity overhead on the fault-free warm run."""
        if self.wall_off_s <= 0:
            return 0.0
        return self.wall_on_s / self.wall_off_s - 1.0

    def invariants(self) -> list[tuple[str, bool]]:
        return [
            self.landed(self.injections_total),
            ("no silent corruption", self.silent_total == 0),
            ("no false positive on the clean run", self.false_positives == 0),
            self._fock_matches(),
            ("|dE| <= tolerance", self.energy_error <= self.tolerance),
            ("GA exact after retransmits", self.ga_error == 0.0),
            ("an intact checkpoint survives", self.checkpoint_intact),
        ]

    def family_lines(self) -> list[str]:
        silent = self.silent
        return [
            f"{kind}: injected {self.injected.get(kind, 0)}  "
            f"detected {self.detected.get(kind, 0)}  "
            + ("SILENT %d" % silent[kind] if silent.get(kind) else "silent 0")
            for kind in sorted(set(self.injected) | set(self.detected))
        ] + [
            f"false positives on clean run: {self.false_positives}",
            f"GA after retransmits: max error {self.ga_error:.3e}  "
            f"intact checkpoint survives: {self.checkpoint_intact}",
            f"integrity overhead (fault-free, warm store): "
            f"{self.overhead * 100:.1f}%",
        ]


def run_sdc_chaos(
    molecule: str = "water",
    basis_name: str = "6-31g",
    tau: float = 1e-11,
    seed: int = 0,
    tolerance: float = 1e-12,
    plan: SDCFaultPlan | None = None,
    workdir: str | Path | None = None,
) -> SDCChaosResult:
    """The ``sdc`` fault family's zero-silent-acceptance gate.

    Five phases in one work directory (a temporary one unless
    ``workdir`` is given -- pass one to keep the corrupted tree for a
    ``repro verify`` audit):

    1. a clean stored-integral SCF run fills ``store/`` and writes
       clean checkpoints -- the trajectory baseline;
    2. fault-free integrity control: the same run, warm store, with
       integrity off then on -- wall-clock overhead plus the
       zero-false-positive check;
    3. the plan bit-flips on-disk store blocks;
    4. the corrupted run: same inputs, ``integrity=True``, sdc faults
       flipping F/D elements in memory and checkpoint files post-write,
       every store read CRC-verified -- must finish with F and E equal
       to the clean run's to ``tolerance`` (all recoveries recompute
       bitwise-identical data) and an intact snapshot still loadable;
    5. a checksummed :class:`~repro.runtime.ga.GlobalArray` under
       in-flight payload corruption -- every reject retransmitted, the
       final array exactly equal to the expected sum.
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

        def make_rhf(ckpt_dir=None, integrity=False, sdc=None):
            return RHF(
                mol, basis_name=basis_name, tau=tau,
                integral_store=str(store_dir),
                checkpoint_dir=None if ckpt_dir is None else str(ckpt_dir),
                integrity=integrity, sdc_faults=sdc,
            )

        # 1. clean baseline (fills + finalizes the store)
        clean = make_rhf(ckpt_dir=ckpt_clean).run()

        # 2. fault-free control on the warm store: overhead + the
        #    false-positive gate (detections here must be zero)
        t0 = time.perf_counter()
        make_rhf().run()
        wall_off = time.perf_counter() - t0
        t0 = time.perf_counter()
        control = make_rhf(integrity=True).run()
        wall_on = time.perf_counter() - t0
        false_positives = control.integrity_summary["detections_total"]

        # 3. silently rot the on-disk store
        store_state = plan.activate()
        store_state.corrupt_store_dir(store_dir)

        # 4. the corrupted run: detectors armed, sdc matrix/file faults
        sdc_result = make_rhf(ckpt_dir=ckpt_sdc, integrity=True, sdc=plan).run()
        summary = sdc_result.integrity_summary
        detections, injections = summary["detections"], summary["injections"]

        # offline checkpoint audit: every flipped file must fail
        # verification, and an intact snapshot must still be loadable
        import warnings as _warnings

        ckpt_detected = audit_checkpoints(ckpt_sdc, VerifyReport(str(ckpt_sdc)))
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            checkpoint_intact = load_latest_intact(ckpt_sdc) is not None

        # 5. checksummed GA accumulates under in-flight corruption
        ga_plan = SDCFaultPlan(seed=plan.seed, payload_flip_rate=0.25)
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
        return SDCChaosResult(
            molecule=mol.name or mol.formula,
            basis_name=basis_name,
            plan=plan,
            fock_error=float(
                np.max(np.abs(sdc_result.fock - clean.fock))
            ),
            energy_error=abs(sdc_result.energy - clean.energy),
            injected=injected,
            detected=detected,
            false_positives=int(false_positives),
            ga_error=ga_error,
            checkpoint_intact=checkpoint_intact,
            integrity_summary=summary,
            wall_off_s=wall_off,
            wall_on_s=wall_on,
            tolerance=tolerance,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
