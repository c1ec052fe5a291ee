"""One report, read from a run directory.

Every HTML page is :func:`repro.obs.report.render_ledger_report` of the
run directory its command wrote.  For each of the five page sources
(``repro report MOLECULE``, ``analyze --report``, runtime ``chaos
--report``, ``torture --report`` and a ledgered ``scf`` run, all
water/STO-3G at p = 4; see ``conftest.report_source``):

* every section the parent-style page renders (``reference_report``,
  fed the same run's data) has its ``<td>`` cells sha256-equal on the
  run-directory page;
* the page the command wrote is byte-equal to a later ``repro report
  DIR`` of the same directory;
* the summary keys the sections read are JSON-native, so the round trip
  through ``summary.json`` is exact.
"""

import hashlib
import json
import re

import pytest
from conftest import PAGE_KEYS

from repro.cli import main
from repro.obs.manifest import load_run

SOURCES = ["run", "critpath", "chaos", "torture", "ledger"]


def section_cells(html: str) -> dict[str, str]:
    """sha256 of each ``<section>``'s ``<td>`` texts, keyed by its first
    ``<h2>``."""
    out = {}
    for body in re.findall(r"<section>(.*?)</section>", html, re.S):
        heading = re.search(r"<h2>(.*?)</h2>", body).group(1)
        cells = "\x00".join(re.findall(r"<td>(.*?)</td>", body, re.S))
        out[heading] = hashlib.sha256(cells.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", SOURCES)
def test_cells_match_the_parent_pages(report_source, name):
    src = report_source(name)
    want = section_cells(src.oracle)
    got = section_cells(src.page.read_text())
    assert want, "the oracle page has no sections"
    assert {h: got.get(h) for h in want} == want
    # the comparison is not vacuous: some compared section has cells
    empty = hashlib.sha256(b"").hexdigest()
    assert any(v != empty for v in want.values())


@pytest.mark.parametrize("name", SOURCES)
def test_page_is_the_rendered_run_directory(report_source, name, tmp_path):
    src = report_source(name)
    again = tmp_path / "again.html"
    assert main(["report", str(src.run_dir), "--out", str(again)]) == 0
    assert again.read_bytes() == src.page.read_bytes()


@pytest.mark.parametrize("name", SOURCES)
def test_page_keys_round_trip_exactly(report_source, name):
    src = report_source(name)
    page_keys = {k: v for k, v in src.recorded.items() if k in PAGE_KEYS}
    assert (name == "ledger") == (not page_keys)
    # json.dumps without a fallback: a numpy scalar would raise here
    assert json.loads(json.dumps(page_keys)) == page_keys
    summary = load_run(src.run_dir).summary
    assert {k: summary[k] for k in page_keys} == page_keys


def test_embedded_trace_is_the_run_directorys_file(report_source):
    """The page embeds the session trace the run directory holds, and
    the summary names that file."""
    import base64

    src = report_source("chaos")
    name = load_run(src.run_dir).summary["trace"]
    payload = re.search(
        r"data:application/json;base64,([^\"]+)", src.page.read_text()
    ).group(1)
    assert base64.b64decode(payload) == (src.run_dir / name).read_bytes()
    # the runtime family's session trace holds the clean build too
    assert (src.run_dir / name).read_text().count('"gtfock_build"') >= 2


def test_no_embedded_trace_and_scratch_directory(tmp_path):
    """``--no-embedded-trace`` arms no tracer; without ``--run-dir`` the
    page comes from a scratch directory it never names."""
    out = tmp_path / "r.html"
    assert main(["report", "h2", "--basis", "sto-3g", "--nproc", "2",
                 "--no-embedded-trace", "--out", str(out)]) == 0
    html = out.read_text()
    assert "Model vs measured" in html
    assert "data:application/json" not in html
    assert "repro-run-" not in html


def test_untraced_report_has_a_critical_path(tmp_path):
    """The analyzer reads the scheduler's record, not the trace: a page
    built without a tracer still carries the build's critical path."""
    run_dir = tmp_path / "run"
    assert main(["report", "water", "--no-embedded-trace",
                 "--out", str(tmp_path / "r.html"),
                 "--run-dir", str(run_dir)]) == 0
    cp = load_run(run_dir).summary["critpath_analysis"]
    assert cp["path"]["explained_ratio"] == pytest.approx(1.0)
    assert len(cp["chains"]) == 4 and all(cp["chains"])


@pytest.mark.parametrize("family", ["scf", "sdc"])
def test_every_chaos_family_writes_its_gate(family, tmp_path, capsys):
    """``--report`` used to be ignored for every family but runtime."""
    out = tmp_path / f"{family}.html"
    rc = main(["chaos", "water", "--basis", "sto-3g", "--family", family,
               "--seed", "2", "--report", str(out)])
    assert rc == 0
    assert f"report written to {out}" in capsys.readouterr().out
    html = out.read_text()
    gate = re.search(r"<h2>Chaos gate: (.*?)</h2>(.*?)</section>", html, re.S)
    assert gate.group(1) == f"{family} chaos"
    rows = re.findall(r"<tr><td>(.*?)</td><td>(.*?)</td></tr>", gate.group(2))
    assert rows and all("badge-pass" in badge for _, badge in rows)
    assert "max |dF| &lt;= tolerance" in [name for name, _ in rows]
    assert "plan: seed=2" in gate.group(2)


def test_check_still_fails_on_a_fail_deviation(tmp_path, monkeypatch):
    """``repro report --check`` exits 1 on a FAIL deviation, and the page
    is written all the same."""
    from repro.obs import validate

    monkeypatch.setattr(validate.Deviation, "status", property(
        lambda self: validate.FAIL
    ))
    out = tmp_path / "r.html"
    rc = main(["report", "h2", "--basis", "sto-3g", "--nproc", "2",
               "--check", "--out", str(out)])
    assert rc == 1
    assert "badge-fail" in out.read_text()
