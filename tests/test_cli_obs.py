"""End-to-end CLI observability: ``repro report`` and the obs flags.

``tests/test_obs.py::TestCli`` covers ``repro scf --trace/--metrics``;
here we cover the ``report`` subcommand and the experiment commands, and
validate the emitted artifacts structurally -- every Perfetto event
carries the required keys, the Prometheus text parses line by line, and
the HTML report is a single self-contained file.
"""

import json
import re

import pytest

from repro.cli import main

_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$"
)


def _check_prometheus(text: str) -> int:
    """Every non-comment line is a valid sample; return the count."""
    n = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_LINE.match(line), f"bad Prometheus line: {line!r}"
        n += 1
    return n


_TRACE_HEAD = '{"traceEvents": ['


def _sampled_events(path, prefix_bytes=8 << 20, tail_bytes=1 << 16):
    """Events of a Chrome trace file: all of a small one, a bounded
    prefix plus the document tail of a large one.

    ``json.loads`` of the 353 MB Table VI trace costs ~18 s and proves
    nothing ``tests/test_obs.py::TestChromeSerializer`` does not already
    pin (the streamed file is byte-equal to ``json.dumps``).  What this
    suite owns is the CLI round trip: the prefix holds the metadata rows
    and the first ~50k spans, the tail shows the document closes.
    """
    size = path.stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(prefix_bytes).decode()
        fh.seek(max(0, size - tail_bytes))
        tail = fh.read().decode()
    if size <= prefix_bytes:
        return json.loads(head)["traceEvents"]
    assert head.startswith(_TRACE_HEAD)
    decoder = json.JSONDecoder()
    events, pos = [], len(_TRACE_HEAD)
    while True:
        try:
            event, pos = decoder.raw_decode(head, pos)
        except json.JSONDecodeError:
            break  # the event the prefix cuts through
        events.append(event)
        pos += len(", ")
    # re-opened at an event boundary, the tail is itself a document
    closing = json.loads(_TRACE_HEAD + tail[tail.index('}, {"') + 3:])
    assert closing["displayTimeUnit"] == "ms"
    return events + closing["traceEvents"]


def _check_perfetto(path) -> list[dict]:
    events = _sampled_events(path)
    assert events, "empty trace"
    for ev in events:
        assert ev["ph"] in ("X", "i", "C", "M")
        if ev["ph"] == "M":  # metadata (process/thread names): no ts/tid
            assert "name" in ev and "pid" in ev
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            assert key in ev, f"event missing {key}: {ev}"
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
    return events


class TestReportCommand:
    @pytest.fixture(scope="class")
    def report_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("report")
        out = tmp / "run-report.html"
        trace = tmp / "trace.json"
        metrics = tmp / "metrics.prom"
        rc = main([
            "report", "water", "--basis", "sto-3g", "--nproc", "4",
            "--out", str(out), "--check",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        return rc, out, trace, metrics

    def test_exit_code_and_html(self, report_run):
        rc, out, _, _ = report_run
        assert rc == 0
        html = out.read_text()
        assert html.lstrip().lower().startswith("<!doctype html>")
        # acceptance markers: heatmap, steal timeline, model table
        for needle in (
            "Communication volume by rank and channel",
            "Steal-event timeline",
            "Model vs measured",
            "prefetch_get",
        ):
            assert needle in html
        # self-contained: no external fetches of any kind
        assert "http" not in re.sub(
            r'href="https://ui\.perfetto\.dev[^"]*"', "", html
        ).replace("https://ui.perfetto.dev", "")

    def test_trace_is_valid_perfetto(self, report_run):
        _, _, trace, _ = report_run
        events = _check_perfetto(trace)
        names = {ev["name"] for ev in events}
        assert "gtfock_build" in names

    def test_metrics_include_flight_counters(self, report_run):
        _, _, _, metrics = report_run
        text = metrics.read_text()
        assert _check_prometheus(text) > 10
        assert "repro_flight_bytes_total" in text
        assert 'channel="prefetch_get"' in text
        assert "repro_comm_bytes_total" in text

    def test_unwritable_out_fails_fast(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--out", str(tmp_path / "no" / "dir.html")])


class TestExperimentObsFlags:
    def test_table6_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t6.json"
        metrics = tmp_path / "t6.json.prom"
        rc = main([
            "table6", "--trace", str(trace), "--metrics", str(metrics)
        ])
        assert rc == 0
        events = _check_perfetto(trace)
        # every event shape the sweep emits is in the sample: metadata
        # rows, host spans, simulated-rank spans with their args
        assert {"M", "X"} <= {ev["ph"] for ev in events}
        assert {1, 2} <= {ev["pid"] for ev in events}
        assert len(events) > 10_000
        _check_prometheus(metrics.read_text())
        out = capsys.readouterr().out
        # satellite: the steal share surfaces in Table VI output
        assert "of it steal MB" in out


class TestVersionAndInfo:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "numpy" in out

    def test_info_command(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("package", "git_sha", "python", "numpy", "cpu_count"):
            assert key in out


class TestRunLedgerCli:
    @pytest.fixture(scope="class")
    def ledger_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ledger")
        rundir = tmp / "run"
        rc = main([
            "scf", "water", "--basis", "sto-3g",
            "--profile", "--run-dir", str(rundir),
        ])
        return rc, rundir

    def test_run_directory_is_complete(self, ledger_run):
        rc, rundir = ledger_run
        assert rc == 0
        for name in ("manifest.json", "metrics.jsonl", "summary.json"):
            assert (rundir / name).exists(), name
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["command"] == "scf"
        assert manifest["config_hash"].startswith("sha256:")
        summary = json.loads((rundir / "summary.json").read_text())
        assert summary["exit_code"] == 0
        assert summary["converged"]
        assert summary["phases"], "profiled run must persist phase stats"

    def test_report_renders_from_rundir(self, ledger_run, tmp_path):
        _, rundir = ledger_run
        out = tmp_path / "ledger.html"
        rc = main(["report", str(rundir), "--out", str(out)])
        assert rc == 0
        html = out.read_text()
        assert html.lstrip().lower().startswith("<!doctype html>")
        for needle in (
            "Run ledger:", "Provenance", "SCF trajectory",
            "Phase profile", "fock_build",
        ):
            assert needle in html

    def test_report_missing_rundir_names_the_problem(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "x.html")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro report:" in err
        assert "does not exist" in err

    def test_report_missing_artifact_named(self, tmp_path, capsys):
        rundir = tmp_path / "partial"
        rundir.mkdir()
        (rundir / "manifest.json").write_text("{}")
        rc = main(["report", str(rundir), "--out", str(tmp_path / "x.html")])
        assert rc == 2
        err = capsys.readouterr().err
        # field-named error, not a traceback
        assert "manifest.json" in err or "schema" in err


class TestPerfCommands:
    def test_perf_check_passes_on_committed_histories(self, capsys):
        rc = main(["perf", "check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "observatory:" in out

    def test_perf_check_fails_on_injected_regression(self, tmp_path, capsys):
        # copy the committed ERI history and append a synthetic 10x
        # slowdown in a quick (machine-independent) metric -- one whose
        # committed trajectory is flat: the relative gate also needs the
        # point to clear the history's own scatter band
        doc = json.loads(open("BENCH_eri.json").read())
        entry = dict(
            [e for e in doc["history"] if e["benchmark"] == "eri_kernels"][-1]
        )
        entry["class_speedup"] = entry["class_speedup"] / 10.0
        doc["history"].append(entry)
        bad = tmp_path / "BENCH_eri.json"
        bad.write_text(json.dumps(doc))
        rc = main(["perf", "check", "--history", str(bad), "--quick"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "fail" in out

    def test_perf_check_that_graded_nothing_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        # a mistyped --history ...
        typo = tmp_path / "BENCH_eri.jsno"
        assert main(["perf", "check", "--history", str(typo)]) == 1
        out, err = capsys.readouterr()
        assert str(typo) in err and "nothing to grade" in err
        assert "PASS" not in out
        # ... and the cwd-relative defaults from outside the repo root
        monkeypatch.chdir(tmp_path)
        assert main(["perf", "check", "--quick"]) == 1
        err = capsys.readouterr().err
        for name in ("BENCH_eri.json", "BENCH_fock.json", "BENCH_service.json"):
            assert str(tmp_path / name) in err

    def test_perf_check_json_output(self, tmp_path):
        out = tmp_path / "check.json"
        rc = main(["perf", "check", "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["status"] in ("pass", "warn")
        assert isinstance(doc["findings"], list)

    def test_perf_history_renders_trajectories(self, capsys):
        rc = main(["perf", "history"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eri_kernels.class_speedup" in out

    def test_perf_profile_quick(self, tmp_path, capsys):
        rundir = tmp_path / "prof"
        rc = main([
            "perf", "profile", "water", "--basis", "sto-3g",
            "--top", "5", "--run-dir", str(rundir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wall [s]" in out  # the phase table header
        assert "hotspots:" in out
        summary = json.loads((rundir / "summary.json").read_text())
        assert summary["phases"]
        assert summary["hotspots"]["hotspots"]
