"""Restricted Hartree-Fock driver (Algorithm 1 of the paper).

Iterates Fock construction and density formation to self-consistency.
The density step can use either matrix diagonalization (line 8 of
Algorithm 1) or canonical purification (Sec IV-E), and any
:class:`~repro.integrals.engine.ERIEngine` supplies the two-electron
integrals, so the same driver runs on real or synthetic integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.molecule import Molecule
from repro.integrals.engine import ERIEngine, MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.obs import get_metrics, get_tracer
from repro.obs.manifest import get_ledger
from repro.obs.profile import (
    PHASE_DIAG,
    PHASE_DIIS,
    PHASE_FOCK,
    PHASE_PURIFY,
    get_profiler,
)
from repro.runtime.faults import SCFFaultPlan
from repro.runtime.sdc import IntegrityError, IntegrityMonitor, SDCFaultPlan
from repro.scf.checkpoint import load_latest_intact, save_checkpoint
from repro.scf.diis import DIIS
from repro.scf.fock import fock_matrix, hf_electronic_energy
from repro.scf.guard import GuardConfig, GuardEvent, SCFGuard
from repro.scf.guess import core_guess
from repro.scf.orthogonalization import density_from_fock, orthogonalizer
from repro.scf.purification import purify


@dataclass
class SCFResult:
    """Converged (or final) state of an RHF run."""

    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    converged: bool
    iterations: int
    fock: np.ndarray
    density: np.ndarray
    coefficients: np.ndarray | None
    orbital_energies: np.ndarray | None
    energy_history: list[float] = field(default_factory=list)
    #: typed convergence-guard event trail (empty when the guard is off)
    guard_events: list[GuardEvent] = field(default_factory=list)
    #: :meth:`repro.scf.guard.SCFGuard.summary` (None when the guard is off)
    guard_summary: dict | None = None
    #: :meth:`repro.runtime.sdc.IntegrityMonitor.summary` (None when the
    #: ``integrity`` knob is off)
    integrity_summary: dict | None = None
    #: doubly occupied orbitals (Tr(DS); Tr(D) only in an orthonormal basis)
    nocc: int = 0

    @property
    def homo_lumo_gap(self) -> float | None:
        eps = self.orbital_energies
        if eps is None or not 0 < self.nocc < eps.size:
            return None
        return float(eps[self.nocc] - eps[self.nocc - 1])


@dataclass
class RHF:
    """Restricted closed-shell Hartree-Fock.

    Parameters
    ----------
    molecule:
        Closed-shell molecule (even electron count).
    basis_name:
        Basis registry key (default ``sto-3g``).
    engine:
        Optional pre-built ERI engine; defaults to
        :class:`~repro.integrals.engine.MDEngine`.
    tau:
        Cauchy-Schwarz drop tolerance used in every Fock build.
    use_diis:
        Pulay convergence acceleration (recommended).
    density_method:
        ``"diagonalize"`` (Algorithm 1, line 8) or ``"purify"``
        (Sec IV-E's diagonalization-free path).
    incremental:
        Build the two-electron part from density differences
        (:class:`~repro.scf.incremental.IncrementalFockBuilder`): late
        iterations screen away almost all quartets.
    integral_store:
        When set, a directory for the memory-mapped stored-integral
        layer (:class:`~repro.integrals.store.ERIStore`): conventional
        SCF.  The first Fock build computes and records the screened
        non-zero quartets; every later iteration reads them back with
        zero ERI recomputation.  A store left by a previous run of the
        *same* basis is reused directly; any mismatch invalidates it
        (with a warning) and it is refilled.
    jk_threads:
        Worker threads for the class-batched J/K contraction (default
        ``None`` = the ``REPRO_JK_THREADS`` environment variable, else
        serial).
    checkpoint_dir:
        When set, snapshot the restartable state (density, energy
        history, DIIS window) to ``checkpoint_dir/scf_ckpt_NNNN.npz``
        after every iteration (see :mod:`repro.scf.checkpoint`).
    restart:
        Resume from the latest *intact* snapshot in ``checkpoint_dir``
        (if one exists; corrupted snapshots are skipped with a
        :class:`~repro.scf.checkpoint.CheckpointCorruptionWarning`); the
        resumed run reproduces the uninterrupted trajectory bitwise.
        Overrides ``guess``.  With a guard, the persisted remediation
        state (damping, level shift, sticky fallbacks) is restored too.
    guard:
        Convergence watchdog + staged remediation
        (:mod:`repro.scf.guard`).  ``True`` enables the default
        :class:`~repro.scf.guard.GuardConfig`; pass a config to tune the
        classifier and ladder; ``None``/``False`` (default) leaves the
        iteration untouched bit for bit.
    faults:
        Optional :class:`~repro.runtime.faults.SCFFaultPlan` injecting
        seeded NaN/Inf corruption into the class kernel's ERI rows and
        SCF matrices (the ``repro chaos --family scf`` harness and the
        torture suite); usually combined with ``guard``.
    integrity:
        End-to-end data-integrity layer (default off, zero hot-path
        cost).  Arms CRC verification of every integral-store read
        (mismatched blocks are recomputed), payload-digest + NaN/shape
        validation of restart checkpoints, and cheap ABFT-style
        algebraic detectors after every Fock build and density step
        (symmetry residuals, the Tr(D S) = n_occ invariant).  Detected
        corruption climbs a recovery ladder -- recompute the offending
        object, roll back the density to the last verified checkpoint
        -- and raises :class:`~repro.runtime.sdc.IntegrityError` only
        when no rung repairs it (the service layer quarantines such
        jobs).  The full detect/recover accounting lands on
        ``SCFResult.integrity_summary`` and the ``repro_integrity_*``
        metrics.  See ``docs/ROBUSTNESS.md`` ("Silent data corruption").
    sdc_faults:
        Optional :class:`~repro.runtime.sdc.SDCFaultPlan` injecting
        seeded *silent* corruption (bit flips in checkpoint files
        post-write and exponent flips in F/D between iterations) for
        the ``repro chaos --family sdc`` harness; combine with
        ``integrity=True`` or the corruption goes undetected -- which
        is exactly the hazard the gate demonstrates.
    on_iteration:
        Optional callback ``(iteration, energy)`` invoked after every
        completed iteration, *after* its checkpoint (if any) is durably
        on disk.  The service worker uses it as the lease heartbeat
        (:mod:`repro.service.worker`): a hung iteration stops
        heartbeating and the job's lease expires.  Exceptions raised by
        the callback abort the run and propagate to the caller.
    """

    molecule: Molecule
    basis_name: str = "sto-3g"
    engine: ERIEngine | None = None
    tau: float = 1e-11
    use_diis: bool = True
    density_method: str = "diagonalize"
    incremental: bool = False
    integral_store: str | None = None
    jk_threads: int | None = None
    max_iter: int = 100
    e_tol: float = 1e-9
    d_tol: float = 1e-7
    checkpoint_dir: str | None = None
    restart: bool = False
    guard: GuardConfig | bool | None = None
    faults: SCFFaultPlan | None = None
    integrity: bool = False
    sdc_faults: SDCFaultPlan | None = None
    on_iteration: Callable[[int, float], None] | None = None

    def __post_init__(self) -> None:
        if self.molecule.nelectrons % 2 != 0:
            raise ValueError(
                f"RHF requires an even electron count, got {self.molecule.nelectrons}"
            )
        if self.density_method not in ("diagonalize", "purify"):
            raise ValueError(f"unknown density_method {self.density_method!r}")
        if self.restart and self.checkpoint_dir is None:
            raise ValueError("restart=True requires checkpoint_dir")
        if self.guard is True:
            self.guard = GuardConfig()
        elif self.guard is False:
            self.guard = None
        self.basis = (
            self.engine.basis
            if self.engine is not None
            else BasisSet.build(self.molecule, self.basis_name)
        )
        if self.engine is None:
            self.engine = MDEngine(self.basis)
        if self.integral_store is not None and self.engine.integral_store is None:
            self.engine.attach_store(self.integral_store)
        store = self.engine.integral_store
        self._store_warm_at_start = bool(store is not None and store.ready)
        self.nocc = self.molecule.nelectrons // 2
        if self.nocc > self.basis.nbf:
            raise ValueError(
                f"{self.nocc} occupied orbitals exceed {self.basis.nbf} basis functions"
            )

    def run(self, guess: np.ndarray | None = None) -> SCFResult:
        """Run the SCF iteration to convergence (Algorithm 1).

        Each iteration is a nested wall-clock span (``fock_build`` /
        ``diis`` / ``diagonalize`` or ``purify``) on the active tracer,
        and the convergence trajectory (energy, energy/density change,
        iteration count) is recorded as gauges labelled by molecule.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        prof = get_profiler()
        ledger = get_ledger()
        mol_label = self.molecule.name or self.molecule.formula
        g_energy = metrics.gauge(
            "repro_scf_energy_hartree", "current total SCF energy",
            labelnames=("molecule",),
        )
        g_de = metrics.gauge(
            "repro_scf_energy_change", "last |dE| between iterations",
            labelnames=("molecule",),
        )
        g_dd = metrics.gauge(
            "repro_scf_density_change", "last max|dD| between iterations",
            labelnames=("molecule",),
        )
        c_iters = metrics.counter(
            "repro_scf_iterations_total", "SCF iterations executed",
            labelnames=("molecule",),
        )
        guard: SCFGuard | None = None
        if self.guard is not None:
            guard = SCFGuard(
                self.guard, e_tol=self.e_tol, d_tol=self.d_tol,
                molecule=mol_label,
            )
            self.engine.finite_check = self.guard.eri_sentinel
        fault_state = None
        if self.faults is not None and self.faults.has_faults:
            fault_state = self.faults.activate()
        self.engine.scf_faults = fault_state
        sdc_state = None
        if self.sdc_faults is not None and self.sdc_faults.has_faults:
            sdc_state = self.sdc_faults.activate()
        self.sdc_state = sdc_state
        if self.integrity and self.engine.integral_store is not None:
            self.engine.integral_store.verify_reads = True

        with tracer.span("scf_setup", cat="scf", molecule=mol_label):
            # the engine's pair data: S, T, V, Schwarz and every class
            # plan expand each shell pair once
            pairs = getattr(self.engine, "pair_cache", None)
            s = overlap(self.basis, pairs)
            h = core_hamiltonian(self.basis, pairs)
            x = orthogonalizer(s)
            enuc = self.molecule.nuclear_repulsion()
            d = guess if guess is not None else core_guess(h, x, self.nocc)

        monitor = None
        if self.integrity:
            monitor = IntegrityMonitor(overlap=s, nocc=self.nocc)
        self.integrity_monitor = monitor

        diis = DIIS() if self.use_diis else None
        inc_builder = None
        if self.incremental:
            from repro.scf.incremental import IncrementalFockBuilder

            inc_builder = IncrementalFockBuilder(
                self.engine, tau=self.tau, threads=self.jk_threads
            )
        history: list[float] = []
        e_old = np.inf
        f = h
        coeffs: np.ndarray | None = None
        eps: np.ndarray | None = None
        converged = False
        start_it = 1
        if self.restart:
            ck = load_latest_intact(self.checkpoint_dir)
            if ck is not None:
                d = ck.density
                e_old = ck.energy
                history = list(ck.energy_history)
                if diis is not None:
                    diis.load_state(ck.diis_focks, ck.diis_errors)
                start_it = ck.iteration + 1
                if guard is not None and ck.guard is not None:
                    guard.load_state(ck.guard)
                    # re-apply the sticky rungs to the rebuilt objects
                    if guard.canonical_threshold is not None:
                        x = orthogonalizer(
                            s, threshold=guard.canonical_threshold,
                            canonical=True,
                        )
                    if guard.reference_eri and self.engine.supports_reference_path:
                        self.engine.force_reference_path()
                tracer.instant(
                    "scf_restart", cat="scf", molecule=mol_label,
                    iteration=ck.iteration,
                )

        def build_fock(density: np.ndarray) -> np.ndarray:
            if inc_builder is not None:
                return inc_builder.fock(h, density)
            return fock_matrix(
                self.engine, h, density, self.tau, threads=self.jk_threads
            )

        it = start_it - 1
        for it in range(start_it, self.max_iter + 1):
            with tracer.span(
                "scf_iteration", cat="scf", molecule=mol_label, iteration=it
            ) as sp:
                with tracer.span("fock_build", cat="scf"), \
                        prof.phase(PHASE_FOCK):
                    f = build_fock(d)
                if fault_state is not None:
                    f = fault_state.corrupt_matrix(f, it, "fock")
                if sdc_state is not None:
                    f = sdc_state.corrupt_matrix(f, it, "fock")
                if guard is not None and not guard.check_matrix("fock", f, it):
                    # arithmetic is broken, not merely slow: jump to the
                    # fallback rungs, apply them, rebuild this Fock once
                    guard.on_nonfinite(it, "fock")
                    if guard.nonfinite_exhausted():
                        raise guard.fail(it, "Fock matrix is non-finite")
                    if guard.consume_diis_reset() and diis is not None:
                        diis.reset()
                    thr = guard.consume_canonical_orth()
                    if thr is not None:
                        x = orthogonalizer(s, threshold=thr, canonical=True)
                    if (
                        guard.consume_reference_eri()
                        and self.engine.supports_reference_path
                    ):
                        self.engine.force_reference_path()
                    if inc_builder is not None:
                        # the accumulated Fock may carry the corruption
                        inc_builder.reset()
                    with tracer.span("fock_rebuild", cat="scf"):
                        f = build_fock(d)
                    if not np.isfinite(f).all():
                        raise guard.fail(
                            it, "Fock matrix is non-finite after rebuild"
                        )
                if monitor is not None and not monitor.check_fock(f, it):
                    # recovery rung 1: ERIs are density independent, so
                    # one rebuild from the same density reproduces the
                    # uncorrupted Fock bitwise
                    monitor.record_recovery("recompute")
                    with tracer.span("fock_rebuild", cat="scf"):
                        f = build_fock(d)
                    if not monitor.check_fock(f, it):
                        raise IntegrityError(
                            f"Fock matrix failed integrity checks after "
                            f"rebuild at iteration {it}"
                        )
                e_elec = hf_electronic_energy(h, f, d)
                history.append(e_elec + enuc)
                if diis is not None:
                    if guard is not None and guard.consume_diis_reset():
                        diis.reset()
                    with tracer.span("diis", cat="scf"), \
                            prof.phase(PHASE_DIIS):
                        err = DIIS.error_vector(f, d, s, x)
                        diis.push(f, err)
                        f_eff = diis.extrapolate()
                else:
                    f_eff = f
                shift = guard.level_shift if guard is not None else 0.0
                density_phase = (
                    PHASE_DIAG if self.density_method == "diagonalize"
                    else PHASE_PURIFY
                )
                def density_step():
                    with tracer.span(self.density_method, cat="scf"), \
                            prof.phase(density_phase):
                        if self.density_method == "diagonalize":
                            if shift:
                                return density_from_fock(
                                    f_eff, x, self.nocc,
                                    level_shift=shift, overlap=s, density=d,
                                )
                            return density_from_fock(f_eff, x, self.nocc)
                        f_or = x.T @ f_eff @ x
                        if shift:
                            p = x.T @ s @ d @ s @ x
                            f_or = f_or + shift * (
                                np.eye(f_or.shape[0]) - 0.5 * (p + p.T)
                            )
                        res = purify(f_or, self.nocc)
                        return x @ res.density @ x.T, eps, coeffs

                d_new, eps, coeffs = density_step()
                if fault_state is not None:
                    d_new = fault_state.corrupt_matrix(d_new, it, "density")
                if sdc_state is not None:
                    d_new = sdc_state.corrupt_matrix(d_new, it, "density")
                discarded = False
                if guard is not None and not guard.check_matrix(
                    "density", d_new, it
                ):
                    guard.on_nonfinite(it, "density")
                    if guard.nonfinite_exhausted():
                        raise guard.fail(it, "density matrix is non-finite")
                    guard.discard_iterate(it, "density")
                    d_new = d  # keep the last good density
                    discarded = True
                if monitor is not None and not monitor.check_density(
                    d_new, it
                ):
                    # recovery rung 1: redo the density step from the
                    # same effective Fock (bitwise-identical when the
                    # corruption was a one-shot memory flip)
                    monitor.record_recovery("recompute")
                    d_new, eps, coeffs = density_step()
                    if not monitor.check_density(d_new, it):
                        # rung 2: roll back to the last snapshot that
                        # still passes both digest and ABFT validation
                        ck = (
                            load_latest_intact(self.checkpoint_dir)
                            if self.checkpoint_dir is not None
                            else None
                        )
                        if ck is not None and monitor.check_density(
                            ck.density, it
                        ):
                            monitor.record_recovery("rollback")
                            d_new = ck.density
                        else:
                            raise IntegrityError(
                                f"density matrix failed integrity checks "
                                f"after recompute at iteration {it} and no "
                                f"verified checkpoint is available"
                            )
                if guard is not None:
                    d_new = guard.damp(d_new, d)
                d_change = float(np.max(np.abs(d_new - d)))
                e_change = abs(e_elec + enuc - e_old)
                e_old = e_elec + enuc
                d = d_new
                sp["energy"] = e_elec + enuc
                sp["d_change"] = d_change
                c_iters.inc(molecule=mol_label)
                g_energy.set(e_elec + enuc, molecule=mol_label)
                g_dd.set(d_change, molecule=mol_label)
                if np.isfinite(e_change):
                    g_de.set(float(e_change), molecule=mol_label)
                ledger.snapshot(
                    "scf_iteration", iteration=it,
                    energy=e_elec + enuc, d_change=d_change,
                )
                if guard is not None and not discarded:
                    guard.observe(it, e_elec + enuc, d_change)
                    thr = guard.consume_canonical_orth()
                    if thr is not None:
                        x = orthogonalizer(s, threshold=thr, canonical=True)
                    if (
                        guard.consume_reference_eri()
                        and self.engine.supports_reference_path
                    ):
                        self.engine.force_reference_path()
                        if inc_builder is not None:
                            inc_builder.reset()
                if (
                    not discarded
                    and d_change < self.d_tol
                    and e_change < self.e_tol
                ):
                    converged = True
            if self.checkpoint_dir is not None:
                ckpt_path = save_checkpoint(
                    self.checkpoint_dir, it, d, e_old, history, diis,
                    guard=guard,
                )
                if sdc_state is not None:
                    # the sdc family's bad-disk model: the snapshot may
                    # rot *after* the atomic rename said it was durable
                    sdc_state.corrupt_file(ckpt_path)
            if self.on_iteration is not None:
                # after the checkpoint is durable: a lease heartbeat here
                # never vouches for progress that could still be lost
                self.on_iteration(it, e_old)
            if converged:
                break

        # final energy with the converged density
        with tracer.span("final_fock_build", cat="scf", molecule=mol_label), \
                prof.phase(PHASE_FOCK):
            f = fock_matrix(
                self.engine, h, d, self.tau, threads=self.jk_threads
            )
        e_elec = hf_electronic_energy(h, f, d)
        eng = self.engine
        eri_store = {
            "computed": int(eng.quartets_computed),
            "from_store": int(eng.quartets_served_from_store),
            "warm_start": getattr(self, "_store_warm_at_start", False),
        }
        worker_stats = getattr(eng, "last_jk_worker_stats", None) or []
        balance = None
        if len(worker_stats) > 1:
            walls = [s["eri_wall"] + s["jk_wall"] for s in worker_stats]
            mean = sum(walls) / len(walls)
            if mean > 0:
                balance = max(walls) / mean
        jk_threads = {"workers": len(worker_stats), "balance": balance}
        integrity_summary = None
        if monitor is not None:
            store = eng.integral_store
            if store is not None:
                # fold the store's CRC accounting into the run-wide
                # integrity story: every mismatched block was recomputed
                monitor.record_check("store_crc", store.crc_checks)
                monitor.record_detection("store_block", store.crc_mismatches)
                monitor.record_recovery("eri_recompute", store.crc_mismatches)
            integrity_summary = monitor.summary()
            if sdc_state is not None:
                integrity_summary["injections"] = sdc_state.summary()
            from repro.obs.metrics import export_integrity

            export_integrity(integrity_summary, registry=metrics)
        extra = (
            {} if integrity_summary is None
            else {"integrity": integrity_summary}
        )
        ledger.add_summary(
            molecule=mol_label, basis=self.basis_name,
            energy=e_elec + enuc, converged=converged, iterations=it,
            eri_store=eri_store, jk_threads=jk_threads, **extra,
        )
        metrics.gauge(
            "repro_scf_converged", "1 if the last SCF run converged",
            labelnames=("molecule",),
        ).set(int(converged), molecule=mol_label)
        return SCFResult(
            energy=e_elec + enuc,
            electronic_energy=e_elec,
            nuclear_repulsion=enuc,
            converged=converged,
            iterations=it,
            fock=f,
            density=d,
            coefficients=coeffs,
            orbital_energies=eps,
            energy_history=history,
            guard_events=list(guard.events) if guard is not None else [],
            guard_summary=guard.summary() if guard is not None else None,
            integrity_summary=integrity_summary,
            nocc=self.nocc,
        )
