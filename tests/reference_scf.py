"""The SCF loop as one body: the differential oracle of ``SCFDriver._iterate``.

:func:`reference_run` is the loop the driver ran before Algorithm 1's
steps became named methods -- five closures, a hand-written
check-and-repair ladder per rung and matrix kind, the engine armed inside
the loop and every per-iteration output spelled out in place.  It is kept
as it was so ``tests/test_scf_loop.py`` can demand that the production
loop's numbers, checkpoint bytes, guard trail and integrity summary equal
it exactly.  It drives a driver's spin hooks (``_guess``,
``_electronic_energy``, ``_new_density``, ``_result``; ``_built_focks``,
``_apply_fallbacks`` and ``_final_state``, which take the run state, see
the loop's locals through a namespace) and the same module globals of
``repro.scf.hf``; nothing in ``src/`` selects it.  It keeps the
incremental build's schedule in its own words: a full build every
``hf.N_FULL`` iterations, for a rebuild and after a discarded or rolled
back density -- and the probes' phases: every guard check, damp and
observation runs in a ``guard`` phase, every ABFT check in an
``integrity`` one.  Its one change since: the final accounting reads
the store the run started with, which a store dropped mid-run (out of
memory, or the guard's ``reference_eri`` rung) no longer hides.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.integrals.store import ERIStore
from repro.obs import get_ledger, get_metrics, get_tracer, phase
from repro.obs.metrics import export_integrity
from repro.obs.profile import PHASE_DIIS, PHASE_FOCK, PHASE_GUARD, PHASE_INTEGRITY
from repro.runtime.sdc import IntegrityError, IntegrityMonitor
from repro.scf import hf
from repro.scf.diis import DIIS
from repro.scf.guard import SCFGuard


def reference_run(driver: hf.SCFDriver):
    """Run ``driver`` through the one-body loop, with the engine armed
    for this run only (restored however it ends) -- and, without a store
    of its own and with the plan's bound on the stored bytes within the
    budget, a private store detached when it ends."""
    engine = driver.engine
    bound = None if engine.integral_store else \
        engine.class_plan(driver.tau).stored_bytes(driver.basis.nbf)
    private = bound is not None and bound <= hf.STORE_BUDGET
    driver.eri_store = {"private": private, "bound": bound}
    if private:
        engine.attach_store(ERIStore(None, driver.basis))
    store = engine.integral_store
    before = (
        engine.finite_check, engine.scf_faults,
        store is not None and store.verify_reads,
    )
    try:
        return _iterate(driver)
    finally:
        engine.finite_check, engine.scf_faults = before[:2]
        if store is not None:
            store.verify_reads = before[2]
        if private:
            engine.detach_store()


def _apply_fallbacks(driver, guard, s, x):
    """The driver's fallback hook on the loop's local state; returns the
    orthogonalizer to continue with."""
    state = SimpleNamespace(guard=guard, s=s, x=x)
    driver._apply_fallbacks(state)
    return state.x


def _extrapolated(
    window: DIIS, fs: list, ds: list, occ, s: np.ndarray, x: np.ndarray
) -> list[np.ndarray]:
    """One DIIS step over the stack of the occupied channels: one set of
    coefficients for all of them."""
    at, f_eff = [i for i, n in enumerate(occ) if n], list(fs)
    window.push(
        np.stack([fs[i] for i in at]),
        np.stack([DIIS.error_vector(fs[i], ds[i], s, x) for i in at]),
    )
    for i, f in zip(at, window.extrapolate()):
        f_eff[i] = f
    return f_eff


def _iterate(self: hf.SCFDriver):
    tracer = get_tracer()
    metrics = get_metrics()
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
    # whether the first build finds the store ready at the run's tau
    store = engine.integral_store
    warm_start = bool(store is not None and store.ready
                      and store.manifest["tau"] == self.tau)
    occ, labels = self._occupations, self._spin_labels
    guard: SCFGuard | None = None
    if self.guard is not None:
        guard = SCFGuard(
            self.guard, e_tol=hf.E_TOL, d_tol=hf.D_TOL,
            molecule=mol_label,
        )
        engine.finite_check = True
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
        with phase(PHASE_GUARD):
            return all([
                guard.check_matrix(which + lab, m, it)
                for lab, m in zip(labels, mats)
            ])

    def focks_intact(mats: list[np.ndarray]) -> bool:
        with phase(PHASE_INTEGRITY):
            return all([monitor.check_fock(f) for f in mats])

    def densities_intact(mats: list[np.ndarray]) -> bool:
        with phase(PHASE_INTEGRITY):
            return all([
                monitor.check_density(d, n) for d, n in zip(mats, occ)
            ])

    if self.integrity and engine.integral_store is not None:
        engine.integral_store.verify_reads = True

    with tracer.span("scf_setup", cat="scf", molecule=mol_label):
        s = hf.overlap(self.basis)
        h = hf.core_hamiltonian(self.basis)
        x = hf.orthogonalizer(s)
        enuc = self.molecule.nuclear_repulsion()
        ds = self._guess(h, x)

    monitor = IntegrityMonitor(overlap=s) if self.integrity else None
    # the (F, D) the next build increments, as ``_built_focks`` keeps it
    built = SimpleNamespace(h=h, base=None)

    def build(full: bool) -> list[np.ndarray]:
        built.ds = ds
        return self._built_focks(built, full)

    diis = DIIS() if self.use_diis and any(occ) else None
    history: list[float] = []
    e_old = np.inf
    fs = [h] * len(occ)
    coeffs: list = [None] * len(occ)
    eps: list = [None] * len(occ)
    converged = False
    start_it = 1
    if self.restart:
        ck = hf.load_latest_intact(self.checkpoint_dir)
        if ck is not None:
            ds = ck.spin_densities
            e_old = ck.energy
            history = list(ck.energy_history)
            built.base = ck.spin_base
            if diis is not None:
                diis.load_state(*ck.diis_window)
            start_it = ck.iteration + 1
            if guard is not None and ck.guard is not None:
                guard.load_state(ck.guard)
                x = _apply_fallbacks(self, guard, s, x)
            tracer.instant(
                "scf_restart", cat="scf", molecule=mol_label,
                iteration=ck.iteration,
            )

    it = start_it - 1
    for it in range(start_it, self.max_iter + 1):
        with tracer.span(
            "scf_iteration", cat="scf", molecule=mol_label, iteration=it
        ) as sp:
            with phase(PHASE_FOCK, cat="scf"):
                fs = build(full=(it - 1) % hf.N_FULL == 0)
            fs = corrupt(fs, "fock")
            if guard is not None and not finite(fs, "fock"):
                guard.on_nonfinite(it, "fock")
                if guard.nonfinite_exhausted():
                    raise guard.fail(it, "Fock matrix is non-finite")
                x = _apply_fallbacks(self, guard, s, x)
                with tracer.span("fock_rebuild", cat="scf"):
                    fs = build(full=True)
                if not all(np.isfinite(f).all() for f in fs):
                    raise guard.fail(
                        it, "Fock matrix is non-finite after rebuild"
                    )
            if monitor is not None and not focks_intact(fs):
                monitor.record_recovery("recompute")
                with tracer.span("fock_rebuild", cat="scf"):
                    fs = build(full=True)
                if not focks_intact(fs):
                    raise IntegrityError(
                        f"Fock matrix failed integrity checks after "
                        f"rebuild at iteration {it}"
                    )
            energy = self._electronic_energy(h, fs, ds) + enuc
            history.append(energy)
            f_eff = fs
            if diis is not None:
                if guard is not None and guard.consume_diis_reset():
                    diis.reset()
                with phase(PHASE_DIIS, cat="scf"):
                    f_eff = _extrapolated(diis, fs, ds, occ, s, x)
            shift = guard.level_shift if guard is not None else 0.0

            def density_step():
                with phase(hf._DENSITY_PHASES[self.density_method], cat="scf"):
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
                ds_new = ds
                built.base = None
                discarded = True
            if monitor is not None and not densities_intact(ds_new):
                monitor.record_recovery("recompute")
                ds_new, eps, coeffs = density_step()
                if not densities_intact(ds_new):
                    ck = (
                        hf.load_latest_intact(self.checkpoint_dir)
                        if self.checkpoint_dir is not None
                        else None
                    )
                    if ck is not None and densities_intact(
                        ck.spin_densities
                    ):
                        monitor.record_recovery("rollback")
                        ds_new = ck.spin_densities
                        built.base = None
                    else:
                        raise IntegrityError(
                            f"density matrix failed integrity checks "
                            f"after recompute at iteration {it} and no "
                            f"verified checkpoint is available"
                        )
            if guard is not None:
                with phase(PHASE_GUARD):
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
                with phase(PHASE_GUARD):
                    guard.observe(it, energy, d_change)
                    x = _apply_fallbacks(self, guard, s, x)
            if (
                not discarded
                and d_change < hf.D_TOL
                and e_change < hf.E_TOL
            ):
                converged = True
        if self.checkpoint_dir is not None:
            ckpt_path = hf.save_checkpoint(
                self.checkpoint_dir, it, ds, e_old, history, diis,
                guard=guard, base=built.base,
            )
            if sdc_state is not None:
                sdc_state.corrupt_file(ckpt_path)
        if self.on_iteration is not None:
            self.on_iteration(it, e_old)
        if converged:
            break

    fs, e_elec, energy = self._final_state(SimpleNamespace(
        h=h, ds=ds, fs=fs, history=history, enuc=enuc, label=mol_label,
        base=built.base,
    ))
    # the store the run started with, dropped mid-run or not
    eri_store = self.eri_store = {
        "computed": int(engine.quartets_computed),
        "from_store": int(engine.quartets_served_from_store),
        "warm_start": warm_start, **self.eri_store,
        "bytes": 0 if store is None else store.nbytes,
    }
    integrity_summary = None
    if monitor is not None:
        if store is not None:
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
        eri_store=eri_store, **extra,
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
