"""Tests for the SCF convergence guard: classifier, ladder, rescues,
checkpoint persistence, orthogonalizer hardening, and the scf chaos gate."""

import hashlib
import json

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water
from repro.fock.chaos import run_scf_chaos
from repro.integrals import class_batch
from repro.integrals.engine import MDEngine, NonFiniteERIError, OSEngine
from repro.integrals.oneelec import overlap
from repro.runtime.faults import BuildFaults, SCFFaultPlan
from repro.scf.checkpoint import (
    CheckpointCorruptionWarning,
    checkpoint_path,
    load_checkpoint,
    load_latest_intact,
    save_checkpoint,
)
from repro.scf.fock import build_jk
from repro.scf import guard as guard_mod
from repro.scf.guard import (
    LADDER,
    DIVERGING,
    HEALTHY,
    NON_FINITE,
    OSCILLATING,
    STAGNATING,
    ConvergenceClassifier,
    GuardConfig,
    GuardError,
    GuardEvent,
    Rung,
    SCFGuard,
)
from repro.scf.hf import RHF
from repro.scf.orthogonalization import (
    LinearDependenceWarning,
    orthogonalizer_info,
)
from repro.scf.torture import near_singular_h4, stretched_water
from repro.scf.uhf import UHF


def classifier(**kw):
    return ConvergenceClassifier(GuardConfig(**kw), e_tol=1e-9, d_tol=1e-7)


class TestClassifier:
    def test_empty_and_short_history_healthy(self):
        c = classifier()
        assert c.classify([], []) == HEALTHY
        assert c.classify([-74.0], [0.5]) == HEALTHY

    def test_nan_energy_is_non_finite(self):
        c = classifier()
        assert c.classify([-74.0, float("nan")], [0.1, 0.1]) == NON_FINITE

    def test_inf_d_change_is_non_finite(self):
        c = classifier()
        assert c.classify([-74.0, -74.1], [0.1, float("inf")]) == NON_FINITE

    def test_period2_oscillation(self):
        # alternating energies with a large, non-shrinking density change
        e = [-74.0, -73.0, -74.0, -73.0, -74.0, -73.0]
        dd = [0.8] * 6
        assert classifier().classify(e, dd) == OSCILLATING

    def test_diverging_energy(self):
        e = [-74.0, -73.0, -70.0, -60.0, -40.0]
        dd = [0.5] * 5
        assert classifier().classify(e, dd) == DIVERGING

    def test_stagnating_window(self):
        e = [-74.0 - 1e-10 * i for i in range(8)]
        dd = [0.01000, 0.01001, 0.00999, 0.01000, 0.01001, 0.00999, 0.01000,
              0.01001]
        assert classifier().classify(e, dd) == STAGNATING

    def test_healthy_convergence(self):
        e = [-73.0, -74.0, -74.9, -74.96, -74.9630, -74.96302]
        dd = [0.5, 0.1, 0.02, 0.004, 8e-4, 1e-4]
        assert classifier().classify(e, dd) == HEALTHY

    def test_converged_scale_never_oscillating(self):
        # sign flips at the convergence threshold are noise, not pathology
        e = [-74.0 + ((-1) ** i) * 1e-6 for i in range(6)]
        dd = [1e-8] * 6
        assert classifier().classify(e, dd) == HEALTHY


class TestConfigAndEvents:
    def test_rung_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown remediation action"):
            Rung("reboot", {})

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            GuardConfig(window=2)
        with pytest.raises(ValueError, match="patience"):
            GuardConfig(patience=0)

    def test_event_json_roundtrip(self):
        ev = GuardEvent(7, OSCILLATING, "damp", {"factor": 0.3})
        assert GuardEvent.from_json(ev.to_json()) == ev
        assert "it 7" in ev.describe()


class TestGuardStateMachine:
    def test_healthy_run_is_untouched(self):
        g = SCFGuard(GuardConfig())
        for i, (e, dd) in enumerate(
            zip([-73.0, -74.0, -74.9, -74.96], [0.5, 0.1, 0.02, 0.004]), 1
        ):
            assert g.observe(i, e, dd) == HEALTHY
        assert g.level == -1 and g.damping == 0.0 and not g.events

    def test_oscillation_escalates_ladder(self):
        g = SCFGuard(GuardConfig(patience=2))
        e, dd = [], []
        for i in range(1, 12):
            e.append(-74.0 if i % 2 else -73.0)
            dd.append(0.8)
            g.observe(i, e[-1], dd[-1])
        assert g.level >= 0
        assert g.damping > 0.0
        actions = {ev.action for ev in g.events}
        assert "damp" in actions

    def test_relax_halves_damping_after_healthy_streak(self):
        g = SCFGuard(GuardConfig())
        g.damping = 0.4
        for i, (e, dd) in enumerate(
            zip([-74.0, -74.5, -74.7, -74.8], [0.5, 0.3, 0.1, 0.05]), 1
        ):
            g.observe(i, e, dd)
        assert g.damping == pytest.approx(0.2)
        assert any(ev.action == "relax" for ev in g.events)

    def test_nonfinite_jumps_to_fallback_rungs(self):
        g = SCFGuard(GuardConfig())
        assert not g.check_matrix("fock", np.array([[np.nan]]), 3)
        g.on_nonfinite(3, "fock")
        reset_rung = next(
            i for i, r in enumerate(LADDER) if r.action == "diis_reset"
        )
        assert g.level == reset_rung
        assert g.consume_diis_reset()
        assert not g.consume_diis_reset()  # one-shot

    def test_nonfinite_exhaustion_aborts(self):
        g = SCFGuard(GuardConfig(max_nonfinite=1))
        bad = np.full((2, 2), np.nan)
        g.check_matrix("fock", bad, 1)
        g.check_matrix("fock", bad, 2)
        assert g.nonfinite_exhausted()
        err = g.fail(2, "test abort")
        assert isinstance(err, GuardError)
        assert err.events and err.events[-1].action == "abort"

    def test_state_roundtrip(self):
        g = SCFGuard(GuardConfig())
        for i in range(1, 10):
            g.observe(i, -74.0 if i % 2 else -73.0, 0.8)
        g.canonical_threshold = 1e-6
        g2 = SCFGuard(GuardConfig())
        g2.load_state(json.loads(g.state_json()))
        assert g2.level == g.level
        assert g2.damping == g.damping
        assert g2.canonical_threshold == 1e-6
        assert [e.to_json() for e in g2.events] == [
            e.to_json() for e in g.events
        ]


class TestGuardedSCF:
    def test_stretched_oscillator_fails_vanilla_converges_guarded(self):
        mol = stretched_water(2.5)
        vanilla = RHF(mol, use_diis=False, max_iter=60).run()
        assert not vanilla.converged
        guarded = RHF(mol, use_diis=False, max_iter=200, guard=True).run()
        assert guarded.converged
        assert np.isfinite(guarded.energy)
        actions = {ev.action for ev in guarded.guard_events}
        assert "damp" in actions
        assert guarded.guard_summary["final_state"] == HEALTHY

    def test_healthy_molecule_bitwise_unchanged_under_guard(self):
        plain = RHF(water()).run()
        guarded = RHF(water(), guard=True).run()
        assert guarded.energy == plain.energy
        assert guarded.iterations == plain.iterations
        assert not guarded.guard_events

    def test_nan_fock_injection_rescued(self):
        plan = SCFFaultPlan(seed=5, fock_nan_iterations=(2, 4))
        res = RHF(water(), guard=True, faults=plan).run()
        assert res.converged
        assert np.isfinite(res.energy)
        assert res.guard_summary["nonfinite"] >= 2
        assert any(ev.classification == NON_FINITE for ev in res.guard_events)

    def test_nan_quartet_injection_rescued_by_sentinel(self):
        plan = SCFFaultPlan(
            seed=11, quartet_nan_rate=0.02, quartet_inf_rate=0.02,
            max_corruptions=64,
        )
        clean = RHF(water()).run()
        rhf = RHF(water(), guard=True, faults=plan)
        res = rhf.run()
        assert res.converged
        assert res.energy == pytest.approx(clean.energy, abs=1e-9)
        assert rhf.engine.eri_rescues > 0

    def test_nonfinite_exhaustion_raises_guard_error(self):
        plan = SCFFaultPlan(seed=1, fock_nan_iterations=(1, 2, 3, 4, 5))
        rhf = RHF(
            water(),
            guard=GuardConfig(max_nonfinite=2),
            faults=plan,
        )
        with pytest.raises(GuardError) as exc_info:
            rhf.run()
        assert exc_info.value.events  # actionable trail

    def test_uhf_guard_smoke(self):
        res = UHF(water(), guard=True).run()
        assert res.converged
        assert res.guard_summary is not None


class TestCheckpointGuardPersistence:
    def test_guard_state_roundtrips_through_npz(self, tmp_path):
        g = SCFGuard(GuardConfig())
        for i in range(1, 8):
            g.observe(i, -74.0 if i % 2 else -73.0, 0.8)
        d = np.eye(3)
        save_checkpoint(tmp_path, 4, d, -74.0, [-73.0, -74.0], guard=g, base=None)
        ck = load_checkpoint(checkpoint_path(tmp_path, 4))
        assert ck.guard is not None
        g2 = SCFGuard(GuardConfig())
        g2.load_state(ck.guard)
        assert g2.level == g.level and g2.damping == g.damping

    def test_pre_guard_checkpoints_still_load(self, tmp_path):
        save_checkpoint(tmp_path, 1, np.eye(2), -1.0, [-1.0], base=None)
        ck = load_checkpoint(checkpoint_path(tmp_path, 1))
        assert ck.guard is None

    def test_corrupted_latest_falls_back_to_intact(self, tmp_path):
        save_checkpoint(tmp_path, 1, np.eye(2), -1.0, [-1.0], base=None)
        save_checkpoint(tmp_path, 2, 2 * np.eye(2), -2.0, [-1.0, -2.0], base=None)
        # truncate the newest snapshot mid-file
        newest = checkpoint_path(tmp_path, 2)
        newest.write_bytes(newest.read_bytes()[:40])
        with pytest.warns(CheckpointCorruptionWarning):
            ck = load_latest_intact(tmp_path)
        assert ck is not None and ck.iteration == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        save_checkpoint(tmp_path, 1, np.eye(2), -1.0, [-1.0], base=None)
        checkpoint_path(tmp_path, 1).write_bytes(b"not a zipfile")
        with pytest.warns(CheckpointCorruptionWarning):
            assert load_latest_intact(tmp_path) is None

    def test_empty_dir_returns_none(self, tmp_path):
        assert load_latest_intact(tmp_path) is None

    def test_restart_skips_corrupted_checkpoint(self, tmp_path):
        mol = water()
        RHF(mol, checkpoint_dir=str(tmp_path)).run()
        # corrupt the newest snapshot; restart must fall back, not crash
        import repro.scf.checkpoint as ckpt

        newest = ckpt.checkpoint_paths(tmp_path)[0]
        newest.write_bytes(b"garbage")
        with pytest.warns(CheckpointCorruptionWarning):
            res = RHF(mol, checkpoint_dir=str(tmp_path), restart=True).run()
        assert res.converged


class TestOrthogonalizerHardening:
    def test_auto_switch_on_near_singular_overlap(self):
        from repro.chem.basis.basisset import BasisSet

        mol = near_singular_h4()
        s = overlap(BasisSet.build(mol, "sto-3g"))
        with pytest.warns(LinearDependenceWarning):
            x, info = orthogonalizer_info(s, threshold=1e-6)
        assert info.canonical
        assert info.condition > 1e6
        assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-8)

    def test_well_conditioned_stays_symmetric(self):
        from repro.chem.basis.basisset import BasisSet

        s = overlap(BasisSet.build(water(), "sto-3g"))
        x, info = orthogonalizer_info(s)
        assert not info.canonical
        assert info.n_dropped == 0

    def test_not_positive_definite_raises_field_named_error(self):
        s = -np.eye(3)
        with pytest.raises(ValueError, match="overlap.*not positive definite"):
            orthogonalizer_info(s)

    def test_rank_deficient_switches_and_drops(self):
        s = np.eye(3) * 1e-20
        s[0, 0] = 1.0
        with pytest.warns(LinearDependenceWarning):
            x, info = orthogonalizer_info(s, threshold=1e-6)
        assert info.canonical
        assert info.n_kept == 1
        assert info.n_dropped == 2

    def test_nan_overlap_raises_finite_error(self):
        s = np.eye(3)
        s[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            orthogonalizer_info(s)


def faulted_build(basis, density, plan):
    """One sentinel-armed ``build_jk`` under ``plan``: J, K, the engine
    and the quartets the sentinel sent to ``rescue_rows``."""
    engine = MDEngine(basis)
    engine.finite_check = True
    engine.scf_faults = plan.activate()
    rescued = []
    rescue = engine.rescue_rows
    engine.rescue_rows = lambda batch, rows: rescued.extend(
        map(tuple, batch.quartets[rows].tolist())
    ) or rescue(batch, rows)
    j, k = build_jk(engine, density)
    return j, k, engine, sorted(rescued)


#: the rows seeds 7 and 8 corrupt in ``test_seeded_faults_ride_the_class_path``,
#: as the per-quartet rescue of the parent kernel recorded them
SEED7_VICTIMS = [
    (1, 0, 0, 0), (2, 2, 2, 0), (5, 1, 4, 4), (5, 2, 3, 0), (6, 2, 3, 1),
    (7, 3, 2, 2), (7, 5, 2, 2), (7, 7, 7, 7), (8, 0, 2, 2), (8, 1, 5, 2),
    (8, 2, 5, 3), (8, 3, 7, 2),
]
SEED8_VICTIMS = [
    (2, 0, 2, 0), (3, 1, 2, 0), (5, 0, 4, 1), (5, 5, 1, 0), (6, 5, 4, 0),
    (7, 4, 3, 2), (7, 4, 7, 1), (7, 5, 1, 0), (7, 6, 2, 2), (7, 6, 4, 0),
    (7, 7, 4, 1), (8, 7, 4, 0),
]


class TestERIFaultSeam:
    def test_sentinel_rescues_corrupted_batched_block(self, water_basis):
        """Every class-kernel row corrupted: every block is rescued."""
        d = np.eye(water_basis.nbf)
        j_ref, k_ref = build_jk(MDEngine(water_basis), d)
        j, k, engine, rescued = faulted_build(
            water_basis, d, SCFFaultPlan(seed=0, quartet_nan_rate=1.0)
        )
        assert engine.eri_rescues == engine.quartets_computed == len(rescued)
        assert engine.scf_faults.quartets_corrupted == len(rescued)
        assert np.abs(j - j_ref).max() <= 1e-12
        assert np.abs(k - k_ref).max() <= 1e-12

    def test_seeded_faults_ride_the_class_path(self, monkeypatch):
        """Faults corrupt rows the production kernel computed: the same
        blocks, and sha256-equal J/K, on every run of one seed."""
        basis = BasisSet.build(water(), "6-31g")
        rng = np.random.default_rng(3)
        d = rng.normal(size=(basis.nbf, basis.nbf))
        d = d + d.T
        clean = MDEngine(basis)
        j_ref, k_ref = build_jk(clean, d)
        sweeps = []
        kernel = class_batch.compute_class_rows

        def counted(chunk):
            blocks = kernel(chunk)
            sweeps.append(sum(map(len, blocks)))
            return blocks

        monkeypatch.setattr(class_batch, "compute_class_rows", counted)
        plan = SCFFaultPlan(
            seed=7, quartet_nan_rate=0.01, quartet_inf_rate=0.01,
            max_corruptions=12,
        )
        runs = [faulted_build(basis, d, plan) for _ in range(2)]
        assert sum(sweeps) == 2 * clean.quartets_computed
        victims = runs[0][3]
        assert victims == SEED7_VICTIMS  # 12: the cap, honoured
        for j, k, engine, rescued in runs:
            assert rescued == victims
            assert engine.quartets_computed == clean.quartets_computed
            assert engine.scf_faults.quartets_corrupted == 12
            assert engine.eri_rescues >= 12
            assert np.abs(j - j_ref).max() <= 1e-12
            assert np.abs(k - k_ref).max() <= 1e-12
        assert len({hashlib.sha256(j.tobytes() + k.tobytes()).hexdigest()
                    for j, k, *_ in runs}) == 1
        # another seed, other victims; a matrix-only plan, none at all
        other = SCFFaultPlan(seed=8, quartet_nan_rate=0.02, max_corruptions=12)
        assert faulted_build(basis, d, other)[3] == SEED8_VICTIMS
        *_, engine, rescued = faulted_build(
            basis, d, SCFFaultPlan(seed=7, fock_nan_iterations=(1,))
        )
        assert rescued == [] and engine.scf_faults.quartets_corrupted == 0
        assert sum(sweeps) == 4 * clean.quartets_computed

    def test_rescue_runs_once_per_chunk_member(self):
        """A member's flagged rows go to one ``rescue_rows`` call, on the
        Obara-Saika kernel: never one call per quartet."""
        basis = BasisSet.build(water(), "6-31g")
        d = np.eye(basis.nbf)
        j_ref, k_ref = build_jk(MDEngine(basis), d)
        engine = MDEngine(basis)
        engine.finite_check = True
        engine.scf_faults = SCFFaultPlan(seed=1, quartet_nan_rate=0.3).activate()
        events, compute, rescue = [], engine.compute_rows, engine.rescue_rows
        engine.compute_rows = lambda chunk: events.append("chunk") or compute(chunk)
        engine.rescue_rows = lambda batch, rows: events.append(
            (id(batch), len(rows))
        ) or rescue(batch, rows)
        j, k = build_jk(engine, d)
        calls = [e for e in events if e != "chunk"]
        rows = sum(n for _, n in calls)
        assert rows == engine.eri_rescues == engine.scf_faults.quartets_corrupted
        assert len(calls) < rows and max(n for _, n in calls) > 1
        members: set = set()
        for event in events:  # at most one call per member of a chunk
            if event == "chunk":
                members = set()
            else:
                assert event[0] not in members
                members.add(event[0])
        assert np.abs(j - j_ref).max() <= 1e-12
        assert np.abs(k - k_ref).max() <= 1e-12

    def test_engine_without_reference_path_raises(self, water_basis):
        engine = OSEngine(water_basis)
        batch = max(engine.class_plan(1e-11).batches, key=lambda b: b.nq)
        with pytest.raises(NonFiniteERIError, match="no rescue path") as err:
            engine.rescue_rows(batch, np.array([1, 0]))
        assert err.value.quartet == tuple(batch.quartets[1].tolist())

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError, match="quartet_nan_rate"):
            SCFFaultPlan(quartet_nan_rate=1.5)
        with pytest.raises(ValueError, match="1-based"):
            SCFFaultPlan(fock_nan_iterations=(0,))
        plan = SCFFaultPlan(
            seed=3, quartet_nan_rate=0.01, fock_nan_iterations=(2,),
            max_corruptions=64,
        )
        assert plan.has_faults
        assert plan.describe()

    def test_matrix_fault_fires_once_per_iteration(self):
        state = SCFFaultPlan(seed=0, fock_nan_iterations=(2,)).activate()
        a = np.ones((3, 3))
        first = state.corrupt_matrix(a, 2, "fock")
        assert np.isnan(first).any()
        again = state.corrupt_matrix(a, 2, "fock")
        assert np.isfinite(again).all()  # same (iteration, target): no re-fire
        assert np.isfinite(state.corrupt_matrix(a, 3, "fock")).all()


class TestRowScopedReferenceRung:
    """A guarded run arms the per-row sentinel from its first iteration: a
    corrupted row is recomputed on the Obara-Saika kernel and every other
    row stays on the class kernel.  The ``reference_eri`` rung detaches
    the integral store, so no row it would serve reaches F unchecked.
    Asserted by counts, not wall clock."""

    PLAN = SCFFaultPlan(seed=4, quartet_nan_rate=0.05, max_corruptions=20)

    @pytest.fixture
    def one_rung(self, monkeypatch):
        """A non-finite F jumps straight to the ladder's last rung; with
        ``reference_eri`` the only one, the first trip takes it."""
        monkeypatch.setattr(guard_mod, "LADDER", (Rung("reference_eri"),))

    @pytest.mark.usefixtures("direct_scf")
    def test_flagged_rows_rescued_the_rest_stay_on_the_class_kernel(
        self, monkeypatch
    ):
        clean = RHF(water()).run()
        rhf = RHF(water(), guard=True, faults=self.PLAN)
        swept, corrupted, rescued = [], [], []
        kernel = class_batch.compute_class_rows

        def counted(chunk):
            blocks = kernel(chunk)
            swept.append(sum(map(len, blocks)))
            return blocks

        monkeypatch.setattr(class_batch, "compute_class_rows", counted)
        hit = BuildFaults.corrupt_rows
        monkeypatch.setattr(
            BuildFaults, "corrupt_rows",
            lambda self, blocks, rows:
                corrupted.append(hit(self, blocks, rows)) or corrupted[-1],
        )
        rescue = rhf.engine.rescue_rows
        rhf.engine.rescue_rows = lambda batch, rows: rescued.append(
            len(rows)
        ) or rescue(batch, rows)
        res = rhf.run()
        assert res.converged
        assert abs(res.energy - clean.energy) <= 1e-9
        # every corrupted row: recomputed once, on Obara-Saika
        assert sum(corrupted) == self.PLAN.max_corruptions
        assert sum(rescued) == rhf.engine.eri_rescues == sum(corrupted)
        # ... and every computed row, rescued or not, came off the class kernel
        assert sum(swept) == rhf.engine.quartets_computed
        assert rhf.engine.pair_cache is not None
        # armed for this run only
        assert rhf.engine.finite_check is False

    def _nan_store(self, path) -> str:
        """A store an unguarded faulted run finalized with NaN rows in it."""
        store = str(path / "store")
        try:
            RHF(water(), faults=self.PLAN, integral_store=store).run()
        except np.linalg.LinAlgError:
            pass  # its NaN Fock matrix has no eigenvectors
        return store

    def test_rows_stored_before_arming_never_reach_f(self, tmp_path, one_rung):
        clean = RHF(water()).run()
        rhf = RHF(water(), guard=True, integral_store=self._nan_store(tmp_path))
        res = rhf.run()
        assert res.converged
        assert abs(res.energy - clean.energy) <= 1e-9
        assert res.guard_summary["by_action"]["reference_eri"] == 1
        assert rhf.engine.integral_store is None

    def test_restart_rearms_from_the_checkpoint_flag(self, tmp_path, one_rung):
        clean = RHF(water()).run()
        store = self._nan_store(tmp_path)
        RHF(
            water(), guard=True, integral_store=store, max_iter=3,
            checkpoint_dir=str(tmp_path),
        ).run()
        assert load_latest_intact(tmp_path).guard["reference_eri"] is True
        armed = []
        rhf = RHF(
            water(), guard=True, integral_store=store,
            checkpoint_dir=str(tmp_path), restart=True,
            on_iteration=lambda it, e: armed.append(rhf.engine.finite_check),
        )
        res = rhf.run()
        assert res.converged
        assert abs(res.energy - clean.energy) <= 1e-9
        assert armed and all(armed)
        # the flag detached the NaN store before the first rebuilt F: the
        # restored trail holds the one trip, and no second one
        assert rhf.engine.integral_store is None
        assert res.guard_summary["by_action"]["reference_eri"] == 1
        assert rhf.engine.finite_check is False


class TestSCFChaosGate:
    def test_scf_chaos_gate_passes(self):
        res = run_scf_chaos(seed=0, quartet_nan_rate=0.05)
        p = res.payload
        assert p["quartets_corrupted"] > 0
        assert p["eri_rescues"] >= p["quartets_corrupted"]
        assert p["fock_error"] <= 1e-12
        assert res.passed
