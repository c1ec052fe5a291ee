"""Tests for UHF: the open-shell physics and the shared SCF loop."""

import numpy as np
import pytest
from conftest import sha256

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import h2, water
from repro.chem.molecule import Molecule
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.obs import MetricsRegistry, RunLedger, load_run, session
from repro.runtime.faults import SCFFaultPlan
from repro.runtime.sdc import flip_bit_in_file
from repro.scf.checkpoint import (
    CheckpointCorruptionWarning,
    checkpoint_path,
    checkpoint_paths,
    load_checkpoint,
)
from repro.scf.fock import build_jk
from repro.scf import hf
from repro.scf.hf import RHF
from repro.scf.orthogonalization import orthogonalizer
from repro.scf.uhf import UHF


def h_atom():
    return Molecule.from_arrays(["H"], np.zeros((1, 3)), name="H")


def water_cation():
    return Molecule(atoms=water().atoms, charge=1, name="H2O+")


#: the open-shell systems the shared-loop gates run on (all STO-3G)
OPEN_SHELLS = {
    "h-doublet": (h_atom, {}),
    "h2-triplet": (lambda: h2(0.7414), {"multiplicity": 3}),
    "water-cation-doublet": (water_cation, {}),
}


class Killed(Exception):
    """Raised from ``on_iteration`` to model a crash between iterations."""


class TestUHF:
    def test_h_atom_literature(self):
        """H atom with STO-3G: E = -0.466582 (exact for this basis)."""
        res = UHF(h_atom()).run()
        assert res.converged
        assert res.energy == pytest.approx(-0.466582, abs=1e-5)

    @pytest.mark.usefixtures("direct_scf")
    def test_final_fock_is_one_full_build(self):
        """As RHF's, a direct UHF's final F is one full build from its
        final densities, never the last iteration's increment, and its
        energy is that F's."""
        uhf = UHF(water_cation())
        res = uhf.run()
        h = core_hamiltonian(uhf.basis)
        ds = [res.density_alpha, res.density_beta]
        full = uhf._focks([h, h], ds)
        assert [sha256(f) for f in (res.fock_alpha, res.fock_beta)] == [
            sha256(f) for f in full]
        assert res.electronic_energy == uhf._electronic_energy(h, full, ds)

    def test_closed_shell_equals_rhf(self):
        e_uhf = UHF(h2(0.7414)).run().energy
        e_rhf = RHF(h2(0.7414)).run().energy
        assert e_uhf == pytest.approx(e_rhf, abs=1e-8)

    def test_symmetry_breaking_below_rhf_at_dissociation(self):
        """Stretched H2: broken-symmetry UHF lies well below RHF."""
        e_uhf = UHF(h2(2.5), guess_mix=0.4).run().energy
        e_rhf = RHF(h2(2.5)).run().energy
        assert e_uhf < e_rhf - 0.05

    def test_spin_contamination_detected(self):
        """Broken-symmetry UHF has <S^2> above the singlet value 0."""
        mol = h2(2.5)
        uhf = UHF(mol, guess_mix=0.4)
        res = uhf.run()
        s = overlap(BasisSet.build(mol, "sto-3g"))
        s2 = res.s_squared(s, uhf.n_alpha, uhf.n_beta)
        assert s2 > 0.5

    def test_closed_shell_s_squared_zero(self):
        mol = h2(0.7414)
        uhf = UHF(mol)
        res = uhf.run()
        s = overlap(BasisSet.build(mol, "sto-3g"))
        assert res.s_squared(s, uhf.n_alpha, uhf.n_beta) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_doublet_spin_density_integrates_to_one(self):
        res = UHF(h_atom()).run()
        spin_density = res.density_alpha - res.density_beta
        assert np.trace(spin_density) == pytest.approx(1.0, abs=1e-8)

    def test_impossible_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            UHF(h2(0.7), multiplicity=2)  # 2 electrons cannot be a doublet

    @pytest.mark.parametrize(
        "mol, kw, sweeps",
        [(h2(0.7414), {}, 3), (h2(2.5), {"guess_mix": 0.4}, 3),
         (h_atom(), {}, 2)],
        ids=["h2", "h2-broken-symmetry", "h-atom-no-beta"],
    )
    def test_one_integral_pass_per_iteration(self, mol, kw, sweeps):
        """Both spins from one stacked build: at a fixed density, 3x fewer
        quartets than the J(Da+Db), K(Da), K(Db) sweeps (2x with no beta
        electrons), and the same Fock matrices.  (A run's later builds
        increment F, each screened by its own density change, so the
        count is pinned on one build.)"""

        class ThreeSweepUHF(UHF):
            def _focks(self, bases, ds):
                (d_a, d_b), (f_a, f_b) = ds, bases
                j_tot, _ = build_jk(self.engine, d_a + d_b, self.tau)
                _, k_a = build_jk(self.engine, d_a, self.tau)
                if self.n_beta == 0:
                    return [f_a + j_tot - k_a, f_b + j_tot]
                _, k_b = build_jk(self.engine, d_b, self.tau)
                return [f_a + j_tot - k_a, f_b + j_tot - k_b]

        res, ref = UHF(mol, **kw).run(), ThreeSweepUHF(mol, **kw).run()
        assert abs(res.energy - ref.energy) <= 1e-10
        new, old = UHF(mol, **kw), ThreeSweepUHF(mol, **kw)
        h = core_hamiltonian(new.basis)
        ds = new._guess(h, orthogonalizer(overlap(new.basis)))
        f_new, f_old = new._focks([h, h], ds), old._focks([h, h], ds)
        # the guess keeps every plan row of these small systems
        per_build = new.engine.class_plan(new.tau).nquartets
        assert new.engine.quartets_computed == per_build
        assert old.engine.quartets_computed == sweeps * per_build
        for a, b in zip(f_new, f_old):
            assert np.abs(a - b).max() <= 1e-12

    def test_triplet_h2_above_singlet_at_equilibrium(self):
        e_singlet = UHF(h2(0.7414), multiplicity=1).run().energy
        e_triplet = UHF(h2(0.7414), multiplicity=3).run().energy
        assert e_triplet > e_singlet + 0.1


@pytest.fixture(params=sorted(OPEN_SHELLS))
def system(request):
    make, kw = OPEN_SHELLS[request.param]
    return make(), kw


def run_killed_then_resumed(mol, kw, ckpt, kill_at, **common):
    """One UHF run aborted from ``on_iteration`` at ``kill_at``, then the
    restart from its checkpoint directory."""
    def kill(iteration, energy):
        if iteration == kill_at:
            raise Killed

    with pytest.raises(Killed):
        UHF(mol, checkpoint_dir=str(ckpt), on_iteration=kill,
            **kw, **common).run()
    return UHF(mol, checkpoint_dir=str(ckpt), restart=True,
               **kw, **common).run()


class TestUHFSharedLoop:
    """UHF runs the one SCF loop of ``repro.scf.hf``, so it passes the
    gates its forked loop could not: crash-resume, heartbeat ordering,
    ledger rows and gauges, every shared driver field."""

    @pytest.mark.parametrize("guard", [False, True], ids=["plain", "guarded"])
    def test_crash_resume_is_bitwise(self, system, guard, tmp_path):
        mol, kw = system
        ref = UHF(mol, guard=guard, **kw).run()
        # iteration 3, or the first one when the run is over by then
        kill_at = min(3, ref.iterations - 1)
        res = run_killed_then_resumed(
            mol, kw, tmp_path, kill_at, guard=guard
        )
        assert res.converged
        assert res.iterations == ref.iterations
        assert res.energy_history == ref.energy_history
        assert np.array_equal(res.density_alpha, ref.density_alpha)
        assert np.array_equal(res.density_beta, ref.density_beta)

    def test_flipped_newest_snapshot_falls_back(self, tmp_path):
        mol = water_cation()
        ref = UHF(mol).run()

        def kill(iteration, energy):
            if iteration == 4:
                raise Killed

        with pytest.raises(Killed):
            UHF(mol, checkpoint_dir=str(tmp_path), on_iteration=kill).run()
        flip_bit_in_file(
            checkpoint_paths(tmp_path)[0], np.random.default_rng(0)
        )
        with pytest.warns(CheckpointCorruptionWarning):
            res = UHF(mol, checkpoint_dir=str(tmp_path), restart=True).run()
        # resumed from iteration 3: still the uninterrupted trajectory
        assert res.energy_history == ref.energy_history
        assert np.array_equal(res.density_alpha, ref.density_alpha)

    @pytest.mark.usefixtures("direct_scf")  # _focks after the run is direct
    @pytest.mark.parametrize("driver", [RHF, UHF])
    def test_resumed_at_max_iter_builds_the_final_fock(self, driver, tmp_path):
        """A snapshot at ``max_iter`` leaves no iteration to run: the
        final Fock matrices are one build from its densities (UHF used to
        return the core Hamiltonian, the loop's start value)."""
        mol = water() if driver is RHF else water_cation()
        kw = {"checkpoint_dir": str(tmp_path), "max_iter": 4}
        driver(mol, **kw).run()
        resumed = driver(mol, restart=True, **kw)
        res = resumed.run()
        assert res.iterations == 4 and not res.converged
        ds = load_checkpoint(checkpoint_path(tmp_path, 4)).spin_densities
        h = core_hamiltonian(resumed.basis)
        fs = resumed._focks([h] * len(ds), ds)
        got = [res.fock] if driver is RHF else [res.fock_alpha, res.fock_beta]
        assert all(np.array_equal(f, g) for f, g in zip(fs, got))
        assert not np.array_equal(got[0], h)
        e_elec = resumed._electronic_energy(h, fs, ds)
        assert res.energy == e_elec + res.nuclear_repulsion

    def test_snapshot_is_spin_stacked(self, tmp_path):
        mol = water_cation()
        UHF(mol, max_iter=3, checkpoint_dir=str(tmp_path)).run()
        ck = load_checkpoint(checkpoint_path(tmp_path, 3))
        n = BasisSet.build(mol, "sto-3g").nbf
        assert ck.density.shape == (2, n, n)
        assert np.shape(ck.diis_focks) == (2, 3, n, n)
        assert [d.shape for d in ck.spin_densities] == [(n, n)] * 2
        # an empty beta space keeps no DIIS window
        UHF(h_atom(), checkpoint_dir=str(tmp_path / "h")).run()
        ck = load_checkpoint(checkpoint_path(tmp_path / "h", 2))
        assert ck.density.shape == (2, 1, 1)
        assert np.shape(ck.diis_focks) == (1, 2, 1, 1)

    def test_heartbeat_follows_the_durable_snapshot(self, system, tmp_path):
        mol, kw = system
        seen = []

        def beat(iteration, energy):
            assert checkpoint_path(tmp_path, iteration).exists()
            assert not checkpoint_path(tmp_path, iteration + 1).exists()
            seen.append((iteration, energy))

        res = UHF(mol, checkpoint_dir=str(tmp_path), on_iteration=beat,
                  **kw).run()
        assert [it for it, _ in seen] == list(range(1, res.iterations + 1))
        assert [e for _, e in seen] == res.energy_history

    def test_ledger_rows_and_gauges(self, tmp_path):
        ledger = RunLedger(tmp_path / "run", command="scf", config={})
        registry = MetricsRegistry()
        with session(ledger=ledger, metrics=registry):
            res = UHF(h2(0.7414), multiplicity=3).run()
        record = load_run(ledger.path)
        rows = [s for s in record.snapshots if s["label"] == "scf_iteration"]
        assert [r["iteration"] for r in rows] == [1, 2]
        assert record.summary["energy"] == res.energy
        assert record.summary["iterations"] == res.iterations
        text = registry.to_prometheus()
        for name in ("repro_scf_energy_hartree", "repro_scf_density_change",
                     "repro_scf_iterations_total", "repro_scf_converged"):
            assert name in text

    @pytest.mark.parametrize("guard", [False, True], ids=["plain", "guarded"])
    def test_closed_shell_uhf_equals_rhf(self, guard):
        uhf = UHF(water(), guess_mix=0, guard=guard).run()
        rhf = RHF(water(), guard=guard).run()
        assert abs(uhf.energy - rhf.energy) <= 1e-9
        assert np.allclose(uhf.density_alpha, rhf.density, atol=1e-7)
        assert np.array_equal(uhf.density_alpha, uhf.density_beta)

    def test_store_and_purification(self, tmp_path, monkeypatch):
        mol = water_cation()
        store = str(tmp_path / "store")
        with monkeypatch.context() as m:
            # converged past the default tolerances
            m.setattr(hf, "E_TOL", 1e-10)
            m.setattr(hf, "D_TOL", 1e-8)
            ref = UHF(mol).run()
            filled = UHF(mol, integral_store=store).run()
            warm_driver = UHF(mol, integral_store=store)
            warm = warm_driver.run()
        # every build of all three is served from the same matrices (the
        # user store's file; ref's are private)
        assert filled.energy == ref.energy
        assert warm.energy == ref.energy
        assert warm_driver.engine.quartets_computed == 0
        assert warm_driver.engine.quartets_served_from_store > 0
        purified = UHF(mol, density_method="purify").run()
        assert purified.converged
        assert abs(purified.energy - ref.energy) <= 1e-10

    def test_cation_converges_in_few_iterations_on_every_path(
        self, tmp_path, monkeypatch
    ):
        """Both spins extrapolate with one DIIS coefficient set (Pulay's
        error overlaps summed over the channels): the water cation
        converges in a dozen iterations, direct and on a store, to one
        energy."""
        monkeypatch.setattr(hf, "E_TOL", 1e-11)
        monkeypatch.setattr(hf, "D_TOL", 1e-8)
        stored = UHF(water_cation(), integral_store=str(tmp_path / "store"))
        runs = [stored.run(), UHF(water_cation()).run()]
        monkeypatch.setattr(hf, "STORE_BUDGET", 0)
        direct = UHF(water_cation())
        runs.append(direct.run())
        assert direct.eri_store["private"] is False
        assert stored.engine.quartets_served_from_store > 0
        for res in runs:
            assert res.converged and res.iterations <= 15
            assert abs(res.energy - runs[0].energy) <= 1e-12

    def test_seeded_faults_rescued_under_the_guard(self, monkeypatch):
        mol = water_cation()
        # converged past the default tolerances, so the energy check
        # compares two converged energies, not two stopping points
        monkeypatch.setattr(hf, "E_TOL", 1e-11)
        monkeypatch.setattr(hf, "D_TOL", 1e-8)
        ref = UHF(mol, guard=True).run()
        # capped: the reference_eri rung (it fires at iteration 8 here)
        # keeps the class kernel, so quartet faults would keep landing
        # on 5 % of every build to the end of the run; 50 is what the
        # first seven iterations inject (48 blocks + the 2 matrices)
        plan = SCFFaultPlan(
            seed=5, quartet_nan_rate=0.05,
            fock_nan_iterations=(2,), density_nan_iterations=(3,),
            max_corruptions=50,
        )
        driver = UHF(mol, guard=True, faults=plan)
        res = driver.run()
        assert res.converged
        assert abs(res.energy - ref.energy) <= 1e-12
        assert res.guard_summary["nonfinite"] == 2
        where = [ev.detail.get("where") for ev in res.guard_events]
        assert "fock_alpha" in where and "density_alpha" in where
        assert driver.engine.eri_rescues > 0

    def test_incremental_rejected_by_name(self):
        """The delta-density builder is gone: neither driver has the
        field, so asking for it names it."""
        for driver in (UHF, RHF):
            with pytest.raises(TypeError, match="incremental"):
                driver(h2(0.7414), incremental=True)

    def test_max_iter_below_one_rejected(self):
        """It used to crash with an IndexError after the empty loop."""
        with pytest.raises(ValueError, match="max_iter"):
            UHF(h2(0.7414), max_iter=0)
