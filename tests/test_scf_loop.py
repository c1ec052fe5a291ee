"""The SCF loop against its one-body oracle (``tests/reference_scf.py``).

Each case runs twice from a fresh working directory: through
``SCFDriver._run``, then with ``_run`` swapped for
:func:`reference_scf.reference_run`.  Both must leave the same things
behind, exactly: every result array (by sha256) and number, the guard
trail and summary, the integrity summary, the bytes of every checkpoint
file, the trace's event sequence, the Prometheus text and the ledger
rows -- or raise the same error with the same guard trail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from reference_scf import reference_run

from repro.chem.builders import water
from repro.chem.molecule import Molecule
from repro.fock.chaos import run_sdc_chaos
from repro.obs import MetricsRegistry, RunLedger, Tracer, load_run, session
from repro.runtime.faults import GateResult, SCFFaultPlan
from repro.runtime.sdc import IntegrityError, SDCFaultPlan
from repro.scf import hf
from repro.scf.guard import GuardConfig, GuardError
from repro.scf.hf import RHF, SCFDriver
from repro.scf.uhf import UHF


def water_cation():
    return Molecule(atoms=water().atoms, charge=1, name="H2O+")


class Killed(Exception):
    pass


def _plain(v):
    if isinstance(v, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
        return (v.dtype.str, v.shape, digest)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if hasattr(v, "to_json"):
        return v.to_json()
    return v


def killed_and_restarted(tmp):
    """``TestFaultsCompose``'s RHF run: quartet NaNs, a NaN'd Fock, F / D
    and checkpoint flips, a stored-integral run killed at iteration 5."""

    def kill(iteration, energy):
        if iteration == 5:
            raise Killed

    def driver(**kw):
        return RHF(
            water(), "6-31g", guard=True, integrity=True,
            faults=SCFFaultPlan(
                seed=5, quartet_nan_rate=0.05, fock_nan_iterations=(2,)
            ),
            sdc_faults=SDCFaultPlan(
                seed=3, checkpoint_flip_rate=0.34,
                fock_flip_iterations=(3,), density_flip_iterations=(4,),
            ),
            integral_store=str(tmp / "store"),
            checkpoint_dir=str(tmp / "ckpt"), **kw,
        )

    with pytest.raises(Killed):
        driver(on_iteration=kill).run()
    return driver(restart=True).run()


def guarded_faulted_uhf(tmp):
    """A guarded UHF whose seeded faults climb to the reference_eri rung:
    three non-finite trips (Fock, density, Fock), one rung each from the
    DIIS reset."""
    plan = SCFFaultPlan(
        seed=5, quartet_nan_rate=0.05, fock_nan_iterations=(2, 4),
        density_nan_iterations=(3,), max_corruptions=50,
    )
    res = UHF(
        water_cation(), guard=True, faults=plan,
        checkpoint_dir=str(tmp / "ckpt"),
    ).run()
    assert [(e.iteration, e.classification) for e in res.guard_events
            if e.action == "reference_eri"] == [(4, "non_finite")]
    return res


class ScaledDensities(RHF):
    """An RHF whose density steps ``bad`` (call numbers) come out scaled:
    symmetric, finite, with the wrong trace -- only the integrity rung's
    trace detector sees them, and a recompute does not repair them."""

    bad = (5, 6)

    def _new_density(self, *args):
        self.calls = getattr(self, "calls", 0) + 1
        d, eps, c = super()._new_density(*args)
        return (1.5 * d if self.calls in self.bad else d), eps, c


def rolled_back(tmp):
    """The density ladder's last rung: the recompute fails too, so D rolls
    back to the newest snapshot that passes digest and ABFT checks."""
    res = ScaledDensities(
        water(), integrity=True, checkpoint_dir=str(tmp / "ckpt")
    ).run()
    assert res.integrity_summary["recoveries"] == {
        "recompute": 1, "rollback": 1,
    }
    return res


def resumed_at_max_iter(tmp):
    RHF(water(), max_iter=4, checkpoint_dir=str(tmp / "ckpt")).run()
    return RHF(
        water(), max_iter=4, checkpoint_dir=str(tmp / "ckpt"), restart=True
    ).run()


#: the runs both loops must agree on: four of the sha256 parity runs (the
#: two perfbench SCF systems are too slow for tier-1), then one run per
#: remaining branch of the check-and-repair ladders
RUNS = {
    "sdc-chaos-seed0": lambda tmp: run_sdc_chaos(seed=0, workdir=tmp / "sdc"),
    "uhf-water-cation": lambda tmp: UHF(water_cation()).run(),
    "uhf-guarded-faulted": guarded_faulted_uhf,
    "rhf-killed-and-restarted": killed_and_restarted,
    "rhf-rolled-back": rolled_back,
    "rhf-resumed-at-max-iter": resumed_at_max_iter,
    "rhf-purified-guarded-faulted": lambda tmp: RHF(
        water(), density_method="purify", guard=True,
        faults=SCFFaultPlan(seed=2, density_nan_iterations=(3,)),
    ).run(),
    "rhf-guard-abort": lambda tmp: RHF(
        water(), guard=GuardConfig(max_nonfinite=2),
        faults=SCFFaultPlan(seed=1, fock_nan_iterations=(1, 2, 3, 4, 5)),
    ).run(),
    "rhf-integrity-error": lambda tmp: ScaledDensities(
        water(), integrity=True
    ).run(),
}


def untimed(res):
    """``res`` without wall-clock values: the sdc gate record's integrity
    overhead (a payload entry, and the detail line printing it)."""
    if not isinstance(res, GateResult):
        return res
    payload = {k: v for k, v in res.payload.items() if k != "overhead"}
    details = tuple(
        line for line in res.details if not line.startswith("integrity overhead")
    )
    return dataclasses.replace(res, details=details, payload=payload)


def fingerprint(run, tmp):
    """Everything one run leaves behind, as comparable values."""
    tracer, registry = Tracer(), MetricsRegistry()
    ledger = RunLedger(tmp / "ledger", command="scf", config={})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with session(tracer=tracer, metrics=registry, ledger=ledger):
            try:
                res = untimed(run(tmp))
            except (GuardError, IntegrityError) as exc:
                return {
                    "raised": (type(exc).__name__, str(exc)),
                    "events": _plain(getattr(exc, "events", [])),
                }
    record = load_run(ledger.path)
    return {
        "result": {
            f.name: _plain(getattr(res, f.name))
            for f in dataclasses.fields(res)
        },
        "checkpoints": {
            str(p.relative_to(tmp)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp.rglob("scf_ckpt_*.npz"))
        },
        "trace": [
            (ev.phase, ev.name, ev.cat, _plain(ev.args))
            for ev in tracer.events
        ],
        "metrics": registry.to_prometheus(),
        "ledger": [
            {k: s.get(k) for k in ("label", "iteration", "energy", "d_change")}
            for s in record.snapshots
        ] + [_plain(record.summary.get(k)) for k in (
            "energy", "converged", "iterations", "eri_store", "integrity",
        )],
    }


def assert_matches_the_oracle(run, tmp_path, monkeypatch):
    (tmp_path / "loop").mkdir()
    (tmp_path / "oracle").mkdir()
    new = fingerprint(run, tmp_path / "loop")
    monkeypatch.setattr(SCFDriver, "_run", reference_run)
    assert fingerprint(run, tmp_path / "oracle") == new


@pytest.mark.parametrize("name", list(RUNS))
def test_loop_matches_the_one_body_oracle(name, tmp_path, monkeypatch):
    """Direct runs (no store budget): the incremental build's schedule."""
    monkeypatch.setattr(hf, "STORE_BUDGET", 0)
    assert_matches_the_oracle(RUNS[name], tmp_path, monkeypatch)


@pytest.mark.parametrize("name", [
    "uhf-guarded-faulted", "rhf-rolled-back", "rhf-resumed-at-max-iter",
    "rhf-purified-guarded-faulted",
])
def test_private_store_runs_match_the_oracle(name, tmp_path, monkeypatch):
    """The same runs at the default budget, each on a private store."""
    assert_matches_the_oracle(RUNS[name], tmp_path, monkeypatch)
