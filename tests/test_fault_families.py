"""The fault families' shared declarations: parity goldens, one-invariant-
at-a-time gate breakage, and the empty-plan rejection.

The goldens (``docs/fault_family_goldens.json``) were written by
:func:`collect_goldens` under the *parent* commit's ``PYTHONPATH`` (its
version of the function, spelled for that commit's gate classes) and
are reproduced here by the declarations and gate functions that
replaced the hand-written plans and result classes.
Regenerate with ``PYTHONPATH=src:tests python -c "import
test_fault_families as t; t.write_goldens()"``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields

import pytest

from repro.cli import main
from repro.fock.chaos import (
    run_chaos,
    run_scf_chaos,
    run_sdc_chaos,
    runtime_gate,
    scf_gate,
    sdc_gate,
)
from repro.runtime.faults import FaultPlan, SCFFaultPlan, random_plan
from repro.runtime.sdc import SDCFaultPlan, random_sdc_plan
from repro.scf.torture import TORTURE_CASES, run_case, torture_gate
from repro.service.chaos import service_gate

GOLDENS = pathlib.Path(__file__).parent.parent / "docs" / "fault_family_goldens.json"

#: every validation message a plan can raise, one bad argument each
BAD_PLANS = [
    (FaultPlan, {"op_fail_rate": 1.0}), (FaultPlan, {"op_fail_rate": -0.1}),
    (FaultPlan, {"delay_rate": -0.5}),
    (FaultPlan, {"slowdown": {0: 0.5}}), (FaultPlan, {"deaths": {1: -1.0}}),
    (SCFFaultPlan, {"quartet_nan_rate": 1.5}),
    (SCFFaultPlan, {"quartet_inf_rate": -0.5}),
    (SCFFaultPlan, {"fock_nan_iterations": (0,)}),
    (SCFFaultPlan, {"density_nan_iterations": (2, -1)}),
    (SCFFaultPlan, {"max_corruptions": -1}),
    (SDCFaultPlan, {"checkpoint_flip_rate": 1.5}),
    (SDCFaultPlan, {"payload_flip_rate": -0.1}),
    (SDCFaultPlan, {"store_flips": -1}),
    (SDCFaultPlan, {"fock_flip_iterations": (0,)}),
    (SDCFaultPlan, {"density_flip_iterations": (0,)}),
    (SDCFaultPlan, {"max_corruptions": -2}),
]


def _scf_inline(seed: int) -> SCFFaultPlan:
    """The plan ``run_scf_chaos`` builds at its default rate."""
    return SCFFaultPlan(
        seed=seed, quartet_nan_rate=0.025, quartet_inf_rate=0.025
    )


def _service_payload() -> dict:
    """``run_service_chaos``'s payload over one queued job, with the
    worker pool stubbed out: the key set without the SIGKILLs."""
    import tempfile
    from types import SimpleNamespace
    from unittest import mock

    from repro.service.chaos import run_service_chaos

    stub = mock.patch(
        "repro.service.chaos.serve",
        lambda *a, **kw: SimpleNamespace(worker_restarts=0),
    )
    with stub, tempfile.TemporaryDirectory() as tmp:
        return run_service_chaos(tmp, njobs=1, kills=1, basis="sto-3g").payload


def collect_goldens() -> dict:
    """describe() strings, validation messages, and each family's
    ``--json`` key set + seeded integer fields."""
    out = {"describe": {}, "messages": {}, "json": {}}
    for seed in range(5):
        out["describe"][f"random_plan({seed}, 4, 1.0)"] = random_plan(
            seed, 4, 1.0).describe()
        out["describe"][f"random_plan({seed}, 8, 2.5, 2 deaths, 2 stragglers)"] = (
            random_plan(seed, 8, 2.5, ndeaths=2, nstragglers=2).describe())
        out["describe"][f"random_sdc_plan({seed})"] = random_sdc_plan(seed).describe()
        out["describe"][f"scf inline({seed})"] = _scf_inline(seed).describe()
    out["describe"]["scf full"] = SCFFaultPlan(
        seed=5, quartet_nan_rate=0.05, quartet_inf_rate=0.01,
        fock_nan_iterations=(2, 4), density_nan_iterations=(3,),
        max_corruptions=64,
    ).describe()
    out["describe"]["sdc empty"] = SDCFaultPlan(seed=9).describe()
    out["describe"]["runtime empty"] = FaultPlan().describe()
    for cls, kwargs in BAD_PLANS:
        with pytest.raises(ValueError) as err:
            cls(**kwargs)
        out["messages"][f"{cls.__name__}({kwargs})"] = str(err.value)
    for seed in range(3):
        j = run_chaos("water", "sto-3g", nproc=4, seed=seed).payload
        out["json"][f"runtime seed {seed}"] = {
            "keys": sorted(j), "overhead_keys": sorted(j["overhead"]),
            "plan": j["overhead"]["plan"], "passed": j["passed"],
            "dead_ranks": j["overhead"]["dead_ranks"],
            "reexecuted_tasks": j["overhead"]["reexecuted_tasks"],
            "retries_total": j["overhead"]["retries_total"],
        }
        j = run_scf_chaos("water", "sto-3g", seed=seed).payload
        out["json"][f"scf seed {seed}"] = {
            "keys": sorted(j), "passed": j["passed"],
            "quartets_corrupted": j["quartets_corrupted"],
            "eri_rescues": j["eri_rescues"],
        }
    j = run_sdc_chaos("water", "sto-3g", seed=3).payload
    out["json"]["sdc seed 3"] = {
        "keys": sorted(j), "passed": j["passed"],
        **{k: j[k] for k in (
            "injected", "detected", "silent", "false_positives",
            "checkpoint_intact", "ga_error",
        )},
    }
    out["json"]["service"] = {"keys": sorted(_service_payload())}
    (case,) = [c for c in TORTURE_CASES if c.name == "nan_fock"]
    (j,) = torture_gate([run_case(case, vanilla=False)]).payload
    out["json"]["torture nan_fock"] = {
        "keys": sorted(j),
        **{k: j[k] for k in (
            "case", "status", "passed", "converged", "aborted", "iterations",
            "guard", "trail",
        )},
    }
    return out


def write_goldens() -> None:
    GOLDENS.write_text(json.dumps(collect_goldens(), indent=1, sort_keys=True) + "\n")


# -- (b) one constructed, passing record per family ---------------------------

_FOCK = dict(
    molecule="H2O", basis="sto-3g", seed=1, fock_error=0.0, energy_error=0.0,
    tolerance=1e-12,
)
_OVERHEAD = dict(
    dead_ranks=[1], retries_total=0, acks_lost_total=0, delay_time_total=0.0,
    reexecuted_tasks=2, recoveries=1, retry_bytes=0, makespan_clean=1.0,
    makespan_faulty=1.5, slowdown=1.5, plan="seed=1 deaths=r1@0.5s",
)
#: per family: its gate function, its plan (None: the gate takes none)
#: and a passing payload
GOOD = {
    "runtime": (runtime_gate, FaultPlan(seed=1, deaths={1: 0.5}), {
        **_FOCK, "nproc": 4, "overhead": _OVERHEAD,
    }),
    "scf": (scf_gate, _scf_inline(1), {
        "family": "scf", **_FOCK, "quartets_corrupted": 6, "eri_rescues": 6,
    }),
    "sdc": (sdc_gate, random_sdc_plan(1), {
        "family": "sdc", **_FOCK, "injected": {"matrix": 2},
        "detected": {"matrix": 2}, "false_positives": 0, "ga_error": 0.0,
        "checkpoint_intact": True, "overhead": 0.0,
    }),
    "service": (service_gate, None, {
        "family": "service", "njobs": 2, "workers": 2, "seed": 0,
        "kills_planned": 1, "kills_done": 1, "wall_s": 1.0,
        "jobs_per_min": 120.0, "counts": {"done": 2}, "requeues": 1,
        "double_records": 0, "max_energy_error": 0.0, "tolerance": 1e-12,
        "worker_restarts": 0,
    }),
}


def good(family: str, **update):
    """``family``'s gate over its passing payload with ``update`` applied
    (an update's ``plan`` swaps the plan instead)."""
    gate, plan, payload = GOOD[family]
    plan = update.pop("plan", plan)
    payload = {**payload, **update}
    return gate(payload) if plan is None else gate(payload, plan)


#: per family, per invariant (in ``invariants`` order): the one payload
#: update that breaks it and nothing else
BREAKERS = {
    "runtime": [
        dict(plan=FaultPlan(seed=1), overhead={**_OVERHEAD, "dead_ranks": []}),
        dict(fock_error=1e-9),
    ],
    "scf": [
        dict(quartets_corrupted=0, eri_rescues=0),
        dict(fock_error=1e-9),
        dict(eri_rescues=5),
    ],
    "sdc": [
        dict(injected={}),
        dict(detected={"matrix": 1}),
        dict(false_positives=1),
        dict(fock_error=1e-9),
        dict(energy_error=1e-9),
        dict(ga_error=1e-16),
        dict(checkpoint_intact=False),
    ],
    "service": [
        dict(kills_planned=2),  # one of two planned kills landed
        dict(counts={"done": 1}),
        dict(double_records=1),
        dict(max_energy_error=1e-9),
    ],
}
CASES = [
    (family, i) for family, breakers in BREAKERS.items()
    for i in range(len(breakers))
]


class TestGateStatedOnce:
    @pytest.mark.parametrize("family", sorted(GOOD))
    def test_constructed_result_passes(self, family):
        res = good(family)
        assert res.passed and res.broken() == []
        assert res.payload["passed"] is True
        assert res.summary_lines()[-1].endswith("-> PASS")
        # every invariant has its breaker below: a new one needs a new row
        assert len(res.invariants) == len(BREAKERS[family])
        assert res.invariants[0][0] == (
            "every planned kill landed" if family == "service"
            else "at least one planned fault landed"
        )

    @pytest.mark.parametrize("family, index", CASES)
    def test_each_invariant_breaks_singly(self, family, index):
        res = good(family, **BREAKERS[family][index])
        name = res.invariants[index][0]
        assert res.broken() == [name]
        assert res.passed is False
        assert res.payload["passed"] is False
        assert res.failure_line() == f"{res.gate} invariant FAILED: {name}"
        assert res.summary_lines()[-1].endswith(f"-> FAIL: {name}")

    def test_torture_gate_names_the_failed_case(self):
        a, b = (
            dict(
                case=c.name, description=c.description, vanilla_converged=None,
                converged=True, energy=-1.0, iterations=3, aborted=False,
                abort_reason="", guard=None, trail=[],
            )
            for c in TORTURE_CASES[:2]
        )
        passing = torture_gate([a, b])
        assert passing.passed and len(passing.payload) == 2
        bad = torture_gate([a, {**b, "converged": False}])
        assert not bad.passed
        assert bad.failure_line() == (
            f"torture invariant FAILED: {b['case']} converges or ends classified"
        )
        assert bad.payload[1]["status"] == "UNEXPLAINED"


class TestParityGoldens:
    """(a) the derived plans and gates reproduce the hand-written ones."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return collect_goldens()

    @pytest.mark.parametrize("section", ["describe", "messages", "json"])
    def test_section_matches_parent(self, fresh, section):
        golden = json.loads(GOLDENS.read_text())
        assert fresh[section] == golden[section]


class TestServiceChaosQueue:
    """``repro chaos --family service`` removes a queue it made itself and
    keeps one passed with ``--queue``; the summary line says which."""

    @pytest.fixture()
    def queues(self, tmp_path, monkeypatch):
        """The queue each run was handed, its gate stubbed (no workers)."""
        import tempfile

        import repro.service

        seen = []

        def stub(queue, **_):
            seen.append(pathlib.Path(queue))
            (seen[-1] / "jobs.sqlite").write_bytes(b"stub")
            return good("service")

        monkeypatch.setattr(repro.service, "run_service_chaos", stub)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return seen

    def test_a_made_queue_is_removed(self, queues, tmp_path, capsys):
        assert main(["chaos", "water", "--family", "service"]) == 0
        assert queues[0].parent == tmp_path and not queues[0].exists()
        assert f"queue {queues[0]} (removed)" in capsys.readouterr().out

    def test_a_given_queue_is_kept(self, queues, tmp_path, capsys):
        mine = tmp_path / "mine"
        mine.mkdir()
        assert main(["chaos", "water", "--family", "service", "--queue", str(mine)]) == 0
        assert queues == [mine] and (mine / "jobs.sqlite").exists()
        assert f"queue {mine} (kept)" in capsys.readouterr().out


class TestEmptyPlanIsBadInput:
    """(c) a gate that would inject nothing is rejected, not passed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "scf", "--quartet-nan-rate", "0"],
            ["--deaths", "0", "--stragglers", "0", "--op-fail-rate", "0",
             "--delay-rate", "0"],
            ["--family", "service", "--kills", "0"],
        ],
        ids=["scf", "runtime", "service"],
    )
    def test_cli_exits_2(self, argv, capsys):
        assert main(["chaos", "water", *argv]) == 2
        captured = capsys.readouterr()
        assert "injects nothing" in captured.err
        assert "PASS" not in captured.out

    def test_sdc_library_call_raises(self):
        from repro.runtime.faults import EmptyPlanError

        with pytest.raises(EmptyPlanError, match="injects nothing"):
            run_sdc_chaos(plan=SDCFaultPlan(seed=0))


# -- the docs table is generated from the declarations ------------------------

#: what each family attacks (the one hand-written column)
SURFACES = {
    "runtime": "simulated ranks, one-sided GA ops, scheduler events",
    "scf": "class-kernel ERI rows; F / D between SCF iterations",
    "sdc": "checkpoint files, stored ERI blocks, GA payloads, F / D in memory",
    "service": "queue workers (SIGKILL at a job's seeded SCF iteration, lease held)",
}
PLANS = {"runtime": FaultPlan, "scf": SCFFaultPlan, "sdc": SDCFaultPlan}


def family_table() -> list[str]:
    """``docs/ROBUSTNESS.md``'s family table: plan fields from the
    :func:`~repro.runtime.faults.declare` metadata, invariants from each
    gate's ``invariants`` names.  Print with ``PYTHONPATH=src:tests
    python -c "import test_fault_families as t;
    print('\\n'.join(t.family_table()))"``."""
    rows = [
        "| family | plan fields | surfaces | invariants |",
        "|---|---|---|---|",
    ]
    for family in ("runtime", "scf", "sdc", "service"):
        names = ["kills"]  # the service family's whole plan
        if family in PLANS:
            names = [
                f.name for f in fields(PLANS[family])
                if f.metadata.get("kind", "param") != "param"
            ]
        rows.append(
            f"| `{family}` | {', '.join(f'`{n}`' for n in names)} "
            f"| {SURFACES[family]} "
            f"| {'; '.join(n for n, _ in good(family).invariants)} |"
            .replace("|dF|", "\\|dF\\|").replace("|dE|", "\\|dE\\|")
        )
    return rows


def test_robustness_doc_lists_every_field_and_invariant():
    doc = (GOLDENS.parent / "ROBUSTNESS.md").read_text()
    for row in family_table():
        assert row in doc
