"""Hartree-Fock SCF driver (Algorithm 1 of the paper).

Iterates Fock construction and density formation to self-consistency.
The density step can use either matrix diagonalization (line 8 of
Algorithm 1) or canonical purification (Sec IV-E), and any
:class:`~repro.integrals.engine.ERIEngine` supplies the two-electron
integrals, so the same driver runs on real or synthetic integrals.

There is one iteration loop, :meth:`SCFDriver._iterate`, over a *spin
stack*: a list with one density / Fock matrix per spin channel (one for
:class:`RHF`, two for :class:`~repro.scf.uhf.UHF`).  Every cross-cutting
step maps over the stack in one fixed order (``docs/ROBUSTNESS.md``,
"One SCF loop"); a driver supplies only what is spin-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.molecule import Molecule
from repro.integrals.class_batch import resolve_jk_threads
from repro.integrals.engine import ERIEngine, MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.obs import get_ledger, get_metrics, get_profiler, get_tracer
from repro.obs.metrics import export_integrity
from repro.obs.profile import (
    PHASE_DIAG,
    PHASE_DIIS,
    PHASE_FOCK,
    PHASE_PURIFY,
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


#: ``density_method`` values and the profiler phase each one runs under
_DENSITY_PHASES = {"diagonalize": PHASE_DIAG, "purify": PHASE_PURIFY}


@dataclass(kw_only=True)
class SCFOutcome:
    """What every SCF run reports, whatever its spin treatment."""

    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    converged: bool
    iterations: int
    energy_history: list[float] = field(default_factory=list)
    #: typed convergence-guard event trail (empty when the guard is off)
    guard_events: list[GuardEvent] = field(default_factory=list)
    #: :meth:`repro.scf.guard.SCFGuard.summary` (None when the guard is off)
    guard_summary: dict | None = None
    #: :meth:`repro.runtime.sdc.IntegrityMonitor.summary` (None when the
    #: ``integrity`` knob is off)
    integrity_summary: dict | None = None


@dataclass(kw_only=True)
class SCFResult(SCFOutcome):
    """Converged (or final) state of an RHF run."""

    fock: np.ndarray
    density: np.ndarray
    coefficients: np.ndarray | None
    orbital_energies: np.ndarray | None
    #: doubly occupied orbitals (Tr(DS); Tr(D) only in an orthonormal basis)
    nocc: int = 0

    @property
    def homo_lumo_gap(self) -> float | None:
        eps = self.orbital_energies
        if eps is None or not 0 < self.nocc < eps.size:
            return None
        return float(eps[self.nocc] - eps[self.nocc - 1])


@dataclass
class SCFDriver:
    """The field base of :class:`RHF` and :class:`~repro.scf.uhf.UHF`
    and the one SCF loop both run.  A subclass sets ``_spin_labels``
    (the guard's matrix-label suffix per spin channel) and
    ``_occupations`` (occupied orbitals per channel) and implements
    ``_guess``, ``_focks``, ``_electronic_energy``, ``_final_state``
    and ``_result``.

    Parameters
    ----------
    molecule:
        The molecule (RHF: closed-shell, an even electron count).
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
    integral_store:
        When set, a directory for the memory-mapped stored-integral
        layer (:class:`~repro.integrals.store.ERIStore`): conventional
        SCF.  The first Fock build computes and records the screened
        non-zero quartets; the next reads them back once into a sparse
        supermatrix (RAM: 2-4.5x the store's bytes) and every later
        iteration is four sparse mat-vecs, with zero ERI recomputation.
        A store left by a previous run of the *same* basis is reused
        directly; any mismatch invalidates it (with a warning) and it
        is refilled.
    jk_threads:
        Worker threads for the class-batched J/K contraction, >= 1
        (default ``None`` = the ``REPRO_JK_THREADS`` environment
        variable, else serial).  Builds served by a ready store do not
        consult it, but a bad count is rejected at construction.
    max_iter:
        Iteration cap, >= 1.
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
        if self.density_method not in _DENSITY_PHASES:
            raise ValueError(f"unknown density_method {self.density_method!r}")
        if self.restart and self.checkpoint_dir is None:
            raise ValueError("restart=True requires checkpoint_dir")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        resolve_jk_threads(self.jk_threads)
        if self.guard is True:
            self.guard = GuardConfig()
        elif self.guard is False:
            self.guard = None
        if self.engine is None:
            self.engine = MDEngine(
                BasisSet.build(self.molecule, self.basis_name)
            )
        self.basis = self.engine.basis
        if self.integral_store is not None and self.engine.integral_store is None:
            self.engine.attach_store(self.integral_store)
        store = self.engine.integral_store
        self._store_warm_at_start = bool(store is not None and store.ready)

    def _run(self, guess: list[np.ndarray] | None):
        """Iterate with the engine armed for this run only: the ERI
        sentinel, the seeded quartet faults and the store's CRC
        verification go back to their pre-run values however it ends."""
        engine, store = self.engine, self.engine.integral_store
        before = (
            engine.finite_check, engine.scf_faults,
            store is not None and store.verify_reads,
        )
        try:
            return self._iterate(guess)
        finally:
            engine.finite_check, engine.scf_faults = before[:2]
            if store is not None:
                store.verify_reads = before[2]

    def _apply_fallbacks(
        self, guard: SCFGuard, s: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        """Execute the guard's pending sticky fallbacks; returns the
        orthogonalizer to continue with."""
        thr = guard.consume_canonical_orth()
        if thr is not None:
            x = orthogonalizer(s, threshold=thr, canonical=True)
        if guard.consume_reference_eri():
            # row-scoped: ERIs are density independent, so recomputing a
            # flagged row on the Obara-Saika kernel is exact and every
            # other row stays on the class kernel.  Arm the per-row
            # sentinel for the rest of the run (_run restores it) and
            # detach the store: no row resolved before it was armed
            # reaches F unchecked
            self.engine.finite_check = True
            self.engine.detach_store()
        return x

    def _new_density(self, f_eff, x, s, d, nocc: int, shift: float):
        """One spin channel's density step: (density, eps, coefficients)."""
        if self.density_method == "diagonalize":
            return density_from_fock(
                f_eff, x, nocc, level_shift=shift, overlap=s, density=d
            )
        f_or = x.T @ f_eff @ x
        if shift:
            p = x.T @ s @ d @ s @ x
            f_or = f_or + shift * (np.eye(f_or.shape[0]) - 0.5 * (p + p.T))
        return x @ purify(f_or, nocc).density @ x.T, None, None

    def _iterate(self, guess: list[np.ndarray] | None):
        """The SCF iteration (Algorithm 1) over the spin stack.

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
        engine = self.engine
        occ, labels = self._occupations, self._spin_labels
        guard: SCFGuard | None = None
        if self.guard is not None:
            guard = SCFGuard(
                self.guard, e_tol=self.e_tol, d_tol=self.d_tol,
                molecule=mol_label,
            )
            engine.finite_check = self.guard.eri_sentinel
        # seeded NaNs (scf family), then silent bit flips (sdc family)
        fault_states = [
            plan.activate() if plan is not None and plan.has_faults else None
            for plan in (self.faults, self.sdc_faults)
        ]
        engine.scf_faults, sdc_state = fault_states

        def corrupt(mats: list[np.ndarray], which: str) -> list[np.ndarray]:
            # each state fires at most once per (iteration, which), so
            # on one spin channel
            for state in fault_states:
                if state is not None:
                    mats = [state.corrupt_matrix(m, it, which) for m in mats]
            return mats

        def finite(mats: list[np.ndarray], which: str) -> bool:
            # no short circuit: every bad channel is a guard event
            return all([
                guard.check_matrix(which + lab, m, it)
                for lab, m in zip(labels, mats)
            ])

        def focks_intact(mats: list[np.ndarray]) -> bool:
            return all([monitor.check_fock(f, it) for f in mats])

        def densities_intact(mats: list[np.ndarray]) -> bool:
            return all([
                monitor.check_density(d, it, n) for d, n in zip(mats, occ)
            ])

        if self.integrity and engine.integral_store is not None:
            engine.integral_store.verify_reads = True

        with tracer.span("scf_setup", cat="scf", molecule=mol_label):
            # the engine's pair data: S, T, V, Schwarz and every class
            # plan expand each shell pair once
            pairs = engine.pair_cache
            s = overlap(self.basis, pairs)
            h = core_hamiltonian(self.basis, pairs)
            x = orthogonalizer(s)
            enuc = self.molecule.nuclear_repulsion()
            ds = guess if guess is not None else self._guess(h, x)

        monitor = IntegrityMonitor(overlap=s) if self.integrity else None
        # an empty spin channel (the beta space of an H atom) has no
        # DIIS window, no density step and no orbital energies
        diis = [DIIS() if self.use_diis and n else None for n in occ]
        windows = [w for w in diis if w is not None]
        history: list[float] = []
        e_old = np.inf
        fs = [h] * len(occ)
        coeffs: list = [None] * len(occ)
        eps: list = [None] * len(occ)
        converged = False
        start_it = 1
        if self.restart:
            ck = load_latest_intact(self.checkpoint_dir)
            if ck is not None:
                ds = ck.spin_densities
                e_old = ck.energy
                history = list(ck.energy_history)
                for w, (focks, errors) in zip(windows, ck.spin_windows):
                    w.load_state(focks, errors)
                start_it = ck.iteration + 1
                if guard is not None and ck.guard is not None:
                    # re-arms the sticky rungs: apply them to the
                    # rebuilt orthogonalizer and the engine's sentinel
                    guard.load_state(ck.guard)
                    x = self._apply_fallbacks(guard, s, x)
                tracer.instant(
                    "scf_restart", cat="scf", molecule=mol_label,
                    iteration=ck.iteration,
                )

        it = start_it - 1
        for it in range(start_it, self.max_iter + 1):
            with tracer.span(
                "scf_iteration", cat="scf", molecule=mol_label, iteration=it
            ) as sp:
                with tracer.span("fock_build", cat="scf"), \
                        prof.phase(PHASE_FOCK):
                    fs = self._focks(h, ds)
                fs = corrupt(fs, "fock")
                if guard is not None and not finite(fs, "fock"):
                    # arithmetic is broken, not merely slow: jump to the
                    # fallback rungs, apply them, rebuild the Focks once
                    # (the DIIS reset is consumed by the DIIS step below)
                    guard.on_nonfinite(it, "fock")
                    if guard.nonfinite_exhausted():
                        raise guard.fail(it, "Fock matrix is non-finite")
                    x = self._apply_fallbacks(guard, s, x)
                    with tracer.span("fock_rebuild", cat="scf"):
                        fs = self._focks(h, ds)
                    if not all(np.isfinite(f).all() for f in fs):
                        raise guard.fail(
                            it, "Fock matrix is non-finite after rebuild"
                        )
                if monitor is not None and not focks_intact(fs):
                    # recovery rung 1: ERIs are density independent, so
                    # one rebuild from the same density reproduces the
                    # uncorrupted Fock bitwise
                    monitor.record_recovery("recompute")
                    with tracer.span("fock_rebuild", cat="scf"):
                        fs = self._focks(h, ds)
                    if not focks_intact(fs):
                        raise IntegrityError(
                            f"Fock matrix failed integrity checks after "
                            f"rebuild at iteration {it}"
                        )
                energy = self._electronic_energy(h, fs, ds) + enuc
                history.append(energy)
                f_eff = fs
                if windows:
                    if guard is not None and guard.consume_diis_reset():
                        for w in windows:
                            w.reset()
                    with tracer.span("diis", cat="scf"), \
                            prof.phase(PHASE_DIIS):
                        f_eff = [
                            f if w is None else _extrapolated(w, f, d, s, x)
                            for w, f, d in zip(diis, fs, ds)
                        ]
                shift = guard.level_shift if guard is not None else 0.0

                def density_step():
                    with tracer.span(self.density_method, cat="scf"), \
                            prof.phase(_DENSITY_PHASES[self.density_method]):
                        return map(list, zip(*[
                            self._new_density(f, x, s, d, n, shift) if n
                            else (np.zeros_like(d), None, None)
                            for f, d, n in zip(f_eff, ds, occ)
                        ]))

                ds_new, eps, coeffs = density_step()
                ds_new = corrupt(ds_new, "density")
                discarded = False
                if guard is not None and not finite(ds_new, "density"):
                    guard.on_nonfinite(it, "density")
                    if guard.nonfinite_exhausted():
                        raise guard.fail(it, "density matrix is non-finite")
                    guard.discard_iterate(it, "density")
                    ds_new = ds  # keep the last good densities
                    discarded = True
                if monitor is not None and not densities_intact(ds_new):
                    # recovery rung 1: redo the density step from the
                    # same effective Focks (bitwise-identical when the
                    # corruption was a one-shot memory flip)
                    monitor.record_recovery("recompute")
                    ds_new, eps, coeffs = density_step()
                    if not densities_intact(ds_new):
                        # rung 2: roll back to the last snapshot that
                        # still passes both digest and ABFT validation
                        ck = (
                            load_latest_intact(self.checkpoint_dir)
                            if self.checkpoint_dir is not None
                            else None
                        )
                        if ck is not None and densities_intact(
                            ck.spin_densities
                        ):
                            monitor.record_recovery("rollback")
                            ds_new = ck.spin_densities
                        else:
                            raise IntegrityError(
                                f"density matrix failed integrity checks "
                                f"after recompute at iteration {it} and no "
                                f"verified checkpoint is available"
                            )
                if guard is not None:
                    ds_new = [guard.damp(n, d) for n, d in zip(ds_new, ds)]
                d_change = max(
                    float(np.max(np.abs(n - d))) for n, d in zip(ds_new, ds)
                )
                e_change = abs(energy - e_old)
                e_old = energy
                ds = ds_new
                sp["energy"] = energy
                sp["d_change"] = d_change
                c_iters.inc(molecule=mol_label)
                g_energy.set(energy, molecule=mol_label)
                g_dd.set(d_change, molecule=mol_label)
                if np.isfinite(e_change):
                    g_de.set(float(e_change), molecule=mol_label)
                ledger.snapshot(
                    "scf_iteration", iteration=it,
                    energy=energy, d_change=d_change,
                )
                if guard is not None and not discarded:
                    guard.observe(it, energy, d_change)
                    x = self._apply_fallbacks(guard, s, x)
                if (
                    not discarded
                    and d_change < self.d_tol
                    and e_change < self.e_tol
                ):
                    converged = True
            if self.checkpoint_dir is not None:
                ckpt_path = save_checkpoint(
                    self.checkpoint_dir, it, ds, e_old, history, diis,
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

        fs, e_elec, energy = self._final_state(h, ds, fs, history, enuc)
        eri_store = {
            "computed": int(engine.quartets_computed),
            "from_store": int(engine.quartets_served_from_store),
            "warm_start": self._store_warm_at_start,
        }
        worker_stats = getattr(engine, "last_jk_worker_stats", None) or []
        balance = None
        if len(worker_stats) > 1:
            walls = [s["eri_wall"] + s["jk_wall"] for s in worker_stats]
            mean = sum(walls) / len(walls)
            if mean > 0:
                balance = max(walls) / mean
        jk_threads = {"workers": len(worker_stats), "balance": balance}
        integrity_summary = None
        if monitor is not None:
            store = engine.integral_store
            if store is not None:
                # fold the store's CRC accounting into the run-wide
                # integrity story: every mismatched block was recomputed
                monitor.record_check("store_crc", store.crc_checks)
                monitor.record_detection("store_block", store.crc_mismatches)
                monitor.record_recovery("eri_recompute", store.crc_mismatches)
            integrity_summary = monitor.summary()
            if sdc_state is not None:
                integrity_summary["injections"] = sdc_state.summary()
            export_integrity(integrity_summary, registry=metrics)
        extra = (
            {} if integrity_summary is None
            else {"integrity": integrity_summary}
        )
        ledger.add_summary(
            molecule=mol_label, basis=self.basis_name,
            energy=energy, converged=converged, iterations=it,
            eri_store=eri_store, jk_threads=jk_threads, **extra,
        )
        metrics.gauge(
            "repro_scf_converged", "1 if the last SCF run converged",
            labelnames=("molecule",),
        ).set(int(converged), molecule=mol_label)
        return self._result(
            fs, ds, eps, coeffs,
            energy=energy,
            electronic_energy=e_elec,
            nuclear_repulsion=enuc,
            converged=converged,
            iterations=it,
            energy_history=history,
            guard_events=list(guard.events) if guard is not None else [],
            guard_summary=guard.summary() if guard is not None else None,
            integrity_summary=integrity_summary,
        )


def _extrapolated(
    window: DIIS, f: np.ndarray, d: np.ndarray, s: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Push this iteration's (F, error) pair; the DIIS-extrapolated F."""
    window.push(f, DIIS.error_vector(f, d, s, x))
    return window.extrapolate()


@dataclass
class RHF(SCFDriver):
    """Restricted closed-shell Hartree-Fock: one spin channel,
    ``F = Hcore + 2J - K``.  Fields: see :class:`SCFDriver`."""

    _spin_labels = ("",)

    def __post_init__(self) -> None:
        if self.molecule.nelectrons % 2 != 0:
            raise ValueError(
                f"RHF requires an even electron count, got {self.molecule.nelectrons}"
            )
        super().__post_init__()
        self.nocc = self.molecule.nelectrons // 2
        if self.nocc > self.basis.nbf:
            raise ValueError(
                f"{self.nocc} occupied orbitals exceed {self.basis.nbf} basis functions"
            )
        self._occupations = (self.nocc,)

    def run(self, guess: np.ndarray | None = None) -> SCFResult:
        """Run the SCF iteration to convergence (Algorithm 1)."""
        return self._run(None if guess is None else [guess])

    def _guess(self, h: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        return [core_guess(h, x, self.nocc)]

    def _focks(self, h: np.ndarray, ds: list[np.ndarray]) -> list[np.ndarray]:
        return [
            fock_matrix(self.engine, h, ds[0], self.tau, threads=self.jk_threads)
        ]

    def _electronic_energy(self, h, fs, ds) -> float:
        return hf_electronic_energy(h, fs[0], ds[0])

    def _final_state(self, h, ds, fs, history, enuc):
        """Final energy with the converged density (one more build)."""
        mol_label = self.molecule.name or self.molecule.formula
        with get_tracer().span(
            "final_fock_build", cat="scf", molecule=mol_label
        ), get_profiler().phase(PHASE_FOCK):
            f = fock_matrix(
                self.engine, h, ds[0], self.tau, threads=self.jk_threads
            )
        e_elec = hf_electronic_energy(h, f, ds[0])
        return [f], e_elec, e_elec + enuc

    def _result(self, fs, ds, eps, coeffs, **common) -> SCFResult:
        return SCFResult(
            fock=fs[0], density=ds[0], coefficients=coeffs[0],
            orbital_energies=eps[0], nocc=self.nocc, **common,
        )
