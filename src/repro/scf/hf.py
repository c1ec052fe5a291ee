"""Hartree-Fock SCF driver (Algorithm 1 of the paper).

Iterates Fock construction and density formation to self-consistency.
The density step can use either matrix diagonalization (line 8 of
Algorithm 1) or canonical purification (Sec IV-E), and any
:class:`~repro.integrals.engine.ERIEngine` supplies the two-electron
integrals, so the same driver runs on real or synthetic integrals.

There is one iteration loop, :meth:`SCFDriver._iterate`, over a *spin
stack*: a list with one density / Fock matrix per spin channel (one for
:class:`RHF`, two for :class:`~repro.scf.uhf.UHF`).  It reads as
Algorithm 1: build F and check it (``_checked_focks``), the energy, DIIS,
the new D and its check (``_checked_densities``), one frozen
:class:`_Iteration` record that the gauges, ledger row, checkpoint and
heartbeat read, the convergence test.  Each ``_checked_*`` step runs the
seeded faults, the guard's finite rung and the integrity rung in one
fixed order (``docs/ROBUSTNESS.md``, "One SCF loop") and returns the
repaired stack or raises; a driver supplies only what is spin-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.molecule import Molecule
from repro.integrals.class_batch import resolve_jk_threads
from repro.integrals.engine import ERIEngine, MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.obs import get_ledger, get_metrics, get_tracer, phase
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
#: what the guard's errors call each matrix kind
_MATRIX = {"fock": "Fock matrix", "density": "density matrix"}
#: a direct SCF builds F from scratch at iterations 1, 1 + N_FULL, ...
#: and increments in between (``SCFDriver._built_focks``).  Longer than
#: the 10- and 17-iteration water-cluster runs, so neither pays a full
#: sweep before its final build (docs/PERFORMANCE.md, "Incremental build")
N_FULL = 20


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


@dataclass
class SCFDriver:
    """The field base of :class:`RHF` and :class:`~repro.scf.uhf.UHF`
    and the one SCF loop both run.  A subclass sets ``_spin_labels``
    (the guard's matrix-label suffix per spin channel) and
    ``_occupations`` (occupied orbitals per channel) and implements
    ``_guess``, ``_focks`` (the Fock stack ``F_base + G(D)`` from one
    base per channel), ``_electronic_energy`` and ``_result``.  A run's
    final F and energy are one more, full, Fock build from its final D
    (``_final_state``).

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
        non-zero quartets and writes them as a sparse supermatrix; the
        next maps it back and every iteration is four sparse mat-vecs,
        with zero ERI recomputation.
        A store left by a previous run of the *same* basis and ``tau``
        is reused directly; any mismatch invalidates it (with a warning)
        and it is refilled.
    jk_threads:
        Worker threads for the class-batched J/K contraction, >= 1
        (default ``None`` = serial).  Builds served by a ready store do
        not consult it, but a bad count is rejected at construction.
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

    def _run(self, guess: list[np.ndarray] | None):
        """Iterate with the engine armed for this run only: the ERI
        sentinel, the seeded quartet faults and the store's CRC
        verification go back to their pre-run values however it ends."""
        engine, store = self.engine, self.engine.integral_store
        before = (
            engine.finite_check, engine.scf_faults,
            store is not None and store.verify_reads,
        )
        # seeded NaNs (scf family), then silent bit flips (sdc family)
        faults = tuple(
            plan.activate() if plan is not None and plan.has_faults else None
            for plan in (self.faults, self.sdc_faults)
        )
        try:
            if self.guard is not None:
                engine.finite_check = True
            engine.scf_faults = faults[0]
            if self.integrity and store is not None:
                store.verify_reads = True
            return self._iterate(guess, faults)
        finally:
            engine.finite_check, engine.scf_faults = before[:2]
            if store is not None:
                store.verify_reads = before[2]

    def _iterate(self, guess: list[np.ndarray] | None, faults: tuple):
        """Algorithm 1 over the spin stack; each iteration is a span with
        ``fock_build`` / ``diis`` / ``diagonalize`` or ``purify`` in it."""
        run = self._start(guess, faults)
        it, converged = run.start - 1, False
        for it in range(run.start, self.max_iter + 1):
            with get_tracer().span(
                "scf_iteration", cat="scf", molecule=run.label, iteration=it
            ) as sp:
                run.fs = self._checked_focks(run, it)
                energy = self._electronic_energy(run.h, run.fs, run.ds) + run.enuc
                run.history.append(energy)
                ds, discarded = self._checked_densities(
                    run, it, self._extrapolated(run)
                )
                rec = self._record(run, it, energy, ds, discarded)
                sp["energy"], sp["d_change"] = rec.energy, rec.d_change
            if self.checkpoint_dir is not None:
                path = save_checkpoint(
                    self.checkpoint_dir, rec.iteration, run.ds, rec.energy,
                    run.history, run.diis, guard=run.guard, base=run.base,
                )
                if run.faults[1] is not None:
                    # the sdc family's bad disk: a snapshot may rot after
                    # the atomic rename said it was durable
                    run.faults[1].corrupt_file(path)
            if self.on_iteration is not None:
                # after the checkpoint: a lease heartbeat never vouches
                # for progress that could still be lost
                self.on_iteration(rec.iteration, rec.energy)
            converged = rec.converged
            if converged:
                break
        return self._finish(run, it, converged)

    def _start(self, guess: list[np.ndarray] | None, faults: tuple) -> _Run:
        """Set-up, then the latest intact snapshot when resuming."""
        label = self.molecule.name or self.molecule.formula
        with get_tracer().span("scf_setup", cat="scf", molecule=label):
            # the engine's pair data: S, T, V, Schwarz and every class
            # plan expand each shell pair once
            pairs = self.engine.pair_cache
            s = overlap(self.basis, pairs)
            h = core_hamiltonian(self.basis, pairs)
            x = orthogonalizer(s)
            enuc = self.molecule.nuclear_repulsion()
            ds = guess if guess is not None else self._guess(h, x)
        store = self.engine.integral_store
        run = _Run(
            label=label, faults=faults, s=s, h=h, x=x, enuc=enuc, ds=ds,
            guard=None if self.guard is None else SCFGuard(
                self.guard, e_tol=self.e_tol, d_tol=self.d_tol, molecule=label
            ),
            monitor=IntegrityMonitor(overlap=s) if self.integrity else None,
            # an empty spin channel (the beta space of an H atom) has no
            # DIIS window, no density step and no orbital energies
            diis=[DIIS() if self.use_diis and n else None
                  for n in self._occupations],
            eps=[None] * len(ds), coeffs=[None] * len(ds),
            warm_start=bool(store is not None and store.ready
                            and store.manifest["tau"] == self.tau),
        )
        ck = load_latest_intact(self.checkpoint_dir) if self.restart else None
        if ck is not None:
            run.ds, run.start = ck.spin_densities, ck.iteration + 1
            run.history, run.base = list(ck.energy_history), ck.spin_base
            windows = [w for w in run.diis if w is not None]
            for w, (focks, errors) in zip(windows, ck.spin_windows):
                w.load_state(focks, errors)
            if run.guard is not None and ck.guard is not None:
                # re-arms the sticky rungs: apply them to the rebuilt
                # orthogonalizer and the engine's sentinel
                run.guard.load_state(ck.guard)
                self._apply_fallbacks(run)
            get_tracer().instant(
                "scf_restart", cat="scf", molecule=label, iteration=ck.iteration
            )
        return run

    def _apply_fallbacks(self, run: _Run) -> None:
        """Execute the guard's pending sticky fallbacks."""
        thr = run.guard.consume_canonical_orth()
        if thr is not None:
            run.x = orthogonalizer(run.s, threshold=thr, canonical=True)
        if run.guard.consume_reference_eri():
            # row-scoped: ERIs are density independent, so recomputing a
            # flagged row on the Obara-Saika kernel is exact and every
            # other row stays on the class kernel.  The guard armed the
            # per-row sentinel for the whole run (_run); detach the store
            # so no row it serves reaches F unchecked
            self.engine.detach_store()

    def _corrupted(self, run: _Run, it: int, kind: str, mats: list) -> list:
        """Seeded NaNs, then silent flips; each state fires at most once
        per (iteration, kind), so on one spin channel."""
        for state in run.faults:
            if state is not None:
                mats = [state.corrupt_matrix(m, it, kind) for m in mats]
        return mats

    def _finite(self, run: _Run, it: int, kind: str, mats: list) -> bool:
        """The guard's NaN/Inf rung; a trip (arithmetic is broken, not
        merely slow) climbs to the fallback rungs or aborts."""
        # no short circuit: every bad channel is a guard event
        if run.guard is None or all([
            run.guard.check_matrix(kind + lab, m, it)
            for lab, m in zip(self._spin_labels, mats)
        ]):
            return True
        run.guard.on_nonfinite(it, kind)
        if run.guard.nonfinite_exhausted():
            raise run.guard.fail(it, f"{_MATRIX[kind]} is non-finite")
        return False

    def _intact(self, run: _Run, it: int, kind: str, mats: list) -> bool:
        """The integrity rung's ABFT detectors, on every channel."""
        if run.monitor is None:
            return True
        if kind == "fock":
            return all([run.monitor.check_fock(f, it) for f in mats])
        return all([
            run.monitor.check_density(d, it, n)
            for d, n in zip(mats, self._occupations)
        ])

    def _built_focks(self, run: _Run, full: bool) -> list[np.ndarray]:
        """F from the run's base: ``F_base + G(D - D_base)``, the base
        being the last build's F and D.  A full build (base H, D_base = 0)
        when ``full``, without a base, or on a store-backed engine, which
        keeps none: a served build is a mat-vec and a fill needs every row."""
        direct = self.engine.integral_store is None
        if full or run.base is None or not direct:
            fs = self._focks([run.h] * len(run.ds), run.ds)
        else:
            fs = self._focks(run.base[0], [
                d - b for d, b in zip(run.ds, run.base[1])
            ])
        run.base = (fs, run.ds) if direct else None
        return fs

    def _checked_focks(self, run: _Run, it: int) -> list[np.ndarray]:
        """Build F, from scratch every :data:`N_FULL` iterations; a tripped
        rung rebuilds it once from scratch (ERIs are density independent,
        so the uncorrupted F) or raises."""
        with phase(PHASE_FOCK, cat="scf"):
            fs = self._built_focks(run, full=(it - 1) % N_FULL == 0)
        fs = self._corrupted(run, it, "fock", fs)
        for rung in (self._finite, self._intact):
            if rung(run, it, "fock", fs):
                continue
            guarded = rung == self._finite
            if guarded:
                # the fallbacks apply to the rebuild; a DIIS reset is
                # consumed by the DIIS step
                self._apply_fallbacks(run)
            else:
                run.monitor.record_recovery("recompute")
            with get_tracer().span("fock_rebuild", cat="scf"):
                fs = self._built_focks(run, full=True)
            if guarded and not all(np.isfinite(f).all() for f in fs):
                raise run.guard.fail(it, "Fock matrix is non-finite after rebuild")
            if not guarded and not rung(run, it, "fock", fs):
                raise IntegrityError(
                    f"Fock matrix failed integrity checks after rebuild at "
                    f"iteration {it}"
                )
        return fs

    def _extrapolated(self, run: _Run) -> list[np.ndarray]:
        """DIIS per occupied channel: the effective Fock stack."""
        windows = [w for w in run.diis if w is not None]
        if not windows:
            return run.fs
        if run.guard is not None and run.guard.consume_diis_reset():
            for w in windows:
                w.reset()
        f_eff = []
        with phase(PHASE_DIIS, cat="scf"):
            for w, f, d in zip(run.diis, run.fs, run.ds):
                if w is not None:
                    w.push(f, DIIS.error_vector(f, d, run.s, run.x))
                    f = w.extrapolate()
                f_eff.append(f)
        return f_eff

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

    def _density_step(self, run: _Run, f_eff: list, shift: float) -> list:
        """A new density per occupied channel; the orbitals go on ``run``."""
        with phase(_DENSITY_PHASES[self.density_method], cat="scf"):
            ds, run.eps, run.coeffs = map(list, zip(*[
                self._new_density(f, run.x, run.s, d, n, shift) if n
                else (np.zeros_like(d), None, None)
                for f, d, n in zip(f_eff, run.ds, self._occupations)
            ]))
        return ds

    def _checked_densities(self, run: _Run, it: int, f_eff: list):
        """(D, discarded): the guard discards a non-finite D for the last
        good one; the integrity rung recomputes D (bitwise after a
        one-shot flip), then rolls back to the newest verified snapshot."""
        shift = run.guard.level_shift if run.guard is not None else 0.0
        ds = self._density_step(run, f_eff, shift)
        ds = self._corrupted(run, it, "density", ds)
        discarded = not self._finite(run, it, "density", ds)
        if discarded:
            run.guard.discard_iterate(it, "density")
            ds, run.base = run.ds, None
        if self._intact(run, it, "density", ds):
            return ds, discarded
        run.monitor.record_recovery("recompute")
        ds = self._density_step(run, f_eff, shift)
        if self._intact(run, it, "density", ds):
            return ds, discarded
        ck = None if self.checkpoint_dir is None else load_latest_intact(
            self.checkpoint_dir
        )
        if ck is None or not self._intact(run, it, "density", ck.spin_densities):
            raise IntegrityError(
                f"density matrix failed integrity checks after recompute at "
                f"iteration {it} and no verified checkpoint is available"
            )
        run.monitor.record_recovery("rollback")
        run.base = None
        return ck.spin_densities, discarded

    def _record(self, run: _Run, it: int, energy: float, ds: list,
                discarded: bool) -> _Iteration:
        """Damp D and measure convergence into the record; the gauges, the
        ledger row and the guard's observation read it."""
        if run.guard is not None:
            ds = [run.guard.damp(n, d) for n, d in zip(ds, run.ds)]
        d_change = max(
            float(np.max(np.abs(n - d))) for n, d in zip(ds, run.ds)
        )
        # the previous energy is the history's (none before the first)
        e_change = abs(
            energy - (run.history[-2] if len(run.history) > 1 else np.inf)
        )
        run.ds = ds
        rec = _Iteration(
            iteration=it, energy=energy, e_change=e_change,
            d_change=d_change, discarded=discarded,
            converged=not discarded and d_change < self.d_tol
            and e_change < self.e_tol,
        )
        metrics, mol = get_metrics(), {"molecule": run.label}
        gauge = partial(metrics.gauge, labelnames=("molecule",))
        metrics.counter(
            "repro_scf_iterations_total", "SCF iterations executed",
            labelnames=("molecule",),
        ).inc(**mol)
        gauge("repro_scf_energy_hartree", "current total SCF energy"
              ).set(rec.energy, **mol)
        gauge("repro_scf_density_change", "last max|dD| between iterations"
              ).set(rec.d_change, **mol)
        de = gauge("repro_scf_energy_change", "last |dE| between iterations")
        if np.isfinite(rec.e_change):
            de.set(float(rec.e_change), **mol)
        get_ledger().snapshot(
            "scf_iteration", iteration=rec.iteration, energy=rec.energy,
            d_change=rec.d_change,
        )
        if run.guard is not None and not rec.discarded:
            run.guard.observe(rec.iteration, rec.energy, rec.d_change)
            self._apply_fallbacks(run)
        return rec

    def _finish(self, run: _Run, it: int, converged: bool):
        """The final state, the run's ledger summary, the result."""
        fs, e_elec, energy = self._final_state(run)
        engine, metrics, guard = self.engine, get_metrics(), run.guard
        walls = [s["wall"] for s in engine.last_jk_worker_stats]
        mean = sum(walls) / max(len(walls), 1)
        extra = {}
        if run.monitor is not None:
            store = engine.integral_store
            if store is not None:
                # fold the store's CRC accounting into the run-wide
                # integrity story: every mismatched block was recomputed
                run.monitor.record_check("store_crc", store.crc_checks)
                run.monitor.record_detection("store_block", store.crc_mismatches)
                run.monitor.record_recovery("eri_recompute", store.crc_mismatches)
            extra["integrity"] = run.monitor.summary()
            if run.faults[1] is not None:
                extra["integrity"]["injections"] = run.faults[1].summary()
            export_integrity(extra["integrity"], registry=metrics)
        get_ledger().add_summary(
            molecule=run.label, basis=self.basis_name,
            energy=energy, converged=converged, iterations=it,
            eri_store={
                "computed": int(engine.quartets_computed),
                "from_store": int(engine.quartets_served_from_store),
                "warm_start": run.warm_start,
            },
            jk_threads={
                "workers": len(walls),
                "balance": max(walls) / mean
                if len(walls) > 1 and mean > 0 else None,
            },
            **extra,
        )
        metrics.gauge(
            "repro_scf_converged", "1 if the last SCF run converged",
            labelnames=("molecule",),
        ).set(int(converged), molecule=run.label)
        return self._result(
            fs, run.ds, run.eps, run.coeffs, energy=energy,
            electronic_energy=e_elec, nuclear_repulsion=run.enuc,
            converged=converged, iterations=it, energy_history=run.history,
            guard_events=list(guard.events) if guard is not None else [],
            guard_summary=guard.summary() if guard is not None else None,
            integrity_summary=extra.get("integrity"),
        )

    def _final_state(self, run: _Run):
        """(F, electronic, total energy): one more, full, build from the
        final D."""
        with phase(PHASE_FOCK, cat="scf", molecule=run.label, final=True):
            fs = self._built_focks(run, full=True)
        e_elec = self._electronic_energy(run.h, fs, run.ds)
        return fs, e_elec, e_elec + run.enuc


@dataclass(frozen=True)
class _Iteration:
    """One completed iteration: what its span attributes, gauges, ledger
    row, guard observation, checkpoint and heartbeat read."""

    iteration: int
    energy: float
    e_change: float
    d_change: float
    discarded: bool
    converged: bool


@dataclass
class _Run:
    """One run's checkers, seeded fault states (scf, then sdc), fixed
    matrices, and the iterate the loop's steps advance."""

    label: str
    guard: SCFGuard | None
    monitor: IntegrityMonitor | None
    faults: tuple
    s: np.ndarray
    h: np.ndarray
    x: np.ndarray
    enuc: float
    ds: list[np.ndarray]
    diis: list[DIIS | None]
    eps: list
    coeffs: list
    #: whether the first build found the store ready at the run's tau
    warm_start: bool
    #: the last iteration's Fock stack (None until one ran)
    fs: list[np.ndarray] | None = field(default=None, init=False)
    #: (F, D) stacks of the last build, which the next one increments
    #: (None: the next build is a full one)
    base: tuple[list, list] | None = field(default=None, init=False)
    history: list[float] = field(default_factory=list, init=False)
    start: int = field(default=1, init=False)


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

    def _focks(self, bases: list, ds: list[np.ndarray]) -> list[np.ndarray]:
        return [fock_matrix(
            self.engine, bases[0], ds[0], self.tau, threads=self.jk_threads
        )]

    def _electronic_energy(self, h, fs, ds) -> float:
        return hf_electronic_energy(h, fs[0], ds[0])

    def _result(self, fs, ds, eps, coeffs, **common) -> SCFResult:
        return SCFResult(
            fock=fs[0], density=ds[0], coefficients=coeffs[0],
            orbital_energies=eps[0], nocc=self.nocc, **common,
        )
