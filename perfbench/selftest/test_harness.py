"""Round statistics, check counting, exit codes."""

import json

import pytest

from perfbench import __main__ as cli
from perfbench import harness
from perfbench.workloads import check_names


def child(body_s, ok=True, workload="scf_direct"):
    return {
        "setup_s": 0.5, "body_s": body_s, "setup_wall_s": 0.6,
        "body_wall_s": body_s * 1.2, "probe_s": 0.016, "cpu_share": 0.99,
        "rss_mb": 100.0 + body_s,
        "checks": dict.fromkeys(check_names(workload, False), ok),
    }


def test_stat_is_median_min_max_n():
    s = harness.stat([9.0, 7.0, 8.0])
    assert (s["value"], s["min"], s["max"], s["n"]) == (8.0, 7.0, 9.0, 3)
    assert s["spread"] == pytest.approx(0.25)
    assert harness.stat([4.0, 2.0])["value"] == 3.0


def test_rounds_never_under_three():
    assert [harness.rounds_for(s) for s in (1, 30, 34, 60)] == [3, 3, 3, 6]


def test_summary_reports_median_time_and_max_memory():
    out = harness.summarize_untraced(
        "scf_direct", False, [child(9.0), child(7.0), child(8.0)])
    e2e = out["end_to_end"]
    assert e2e["time_to_solution_s"]["value"] == 8.0
    assert e2e["peak_rss_mb"]["value"] == 109.0
    assert e2e["success_share"]["value"] == 1.0
    assert (out["attempted"], out["failed"]) == (6, 0)
    assert out["diagnostics"]["wall.time_to_solution_s"] == 8.0 * 1.2


def test_failing_check_lowers_success_share():
    bad = child(8.0)
    bad["checks"]["energy"] = False
    out = harness.summarize_untraced(
        "scf_direct", False, [child(7.0), bad, child(9.0)])
    assert (out["attempted"], out["failed"]) == (6, 1)
    assert out["end_to_end"]["success_share"]["value"] == pytest.approx(5 / 6)


def test_crashed_child_counts_as_failed_not_missing():
    out = harness.summarize_untraced(
        "scf_stored", False,
        [child(7.0, workload="scf_stored"), None,
         child(9.0, workload="scf_stored")])
    assert (out["attempted"], out["failed"]) == (15, 5)
    assert out["end_to_end"]["time_to_solution_s"]["n"] == 2
    assert out["end_to_end"]["success_share"]["value"] == pytest.approx(10 / 15)


def test_a_check_the_child_did_not_report_is_failed():
    quiet = child(8.0)
    del quiet["checks"]["converged"]
    assert harness.count_checks("scf_direct", False, [quiet]) == (2, 1)


def test_real_child_that_crashes_is_none(tmp_path, monkeypatch):
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("")
    monkeypatch.setattr(harness, "WORKDIR", blocker)
    assert harness.run_child("scf_direct", 0, smoke=True) is None


def fake_pass(failed):
    bad = child(8.0)
    bad["checks"]["energy"] = not failed

    def run_pass(workloads, seed, **kw):
        return {"seed": seed, "smoke": False, "traced": False, "rounds": 3,
                "workloads": {"scf_direct": harness.summarize_untraced(
                    "scf_direct", False, [child(7.0), bad, child(9.0)])}}
    return run_pass


@pytest.mark.parametrize("failed, code", [(False, 0), (True, 1)])
def test_exit_code_follows_the_checks(monkeypatch, capsys, failed, code):
    monkeypatch.setattr(harness, "run_pass", fake_pass(failed))
    assert cli.main(["--workload", "scf_direct"]) == code
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is (not failed)
    assert line["failed"] == int(failed)
    assert set(line["metrics"]) == {
        "setup_s", "time_to_solution_s", "peak_rss_mb", "success_share"}
    assert (line["metrics"]["success_share"]["value"] < 1) is failed


def test_no_result_when_every_round_crashed(monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_pass", lambda w, s, **kw: {
        "seed": s, "smoke": False, "traced": False, "rounds": 3,
        "workloads": {"scf_direct": harness.summarize_untraced(
            "scf_direct", False, [None, None, None])}})
    assert cli.main(["--workload", "scf_direct"]) == 1
    assert not capsys.readouterr().out.strip().endswith("}")
