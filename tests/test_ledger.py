"""Run ledger: manifest round-trip, streamed snapshots, loader errors."""

import json

import pytest

from repro.obs import get_ledger, phase, session
from repro.obs.manifest import (
    LedgerError,
    NullLedger,
    RunLedger,
    config_hash,
    find_runs,
    load_run,
    provenance,
    utc_now_iso,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler


def _make_run(tmp_path, name="run", close=True, **kw):
    ledger = RunLedger(
        tmp_path / name,
        command="scf",
        config={"molecule": "water", "basis": "6-31g"},
        molecule="water",
        basis="6-31g",
        **kw,
    )
    if close:
        ledger.close(0)
    return ledger


class TestManifest:
    def test_round_trip(self, tmp_path):
        ledger = _make_run(tmp_path, argv=["scf", "water"], seed=7, close=False)
        reg = MetricsRegistry()
        reg.counter("repro_iterations_total").inc(3)
        with session(metrics=reg):
            ledger.snapshot("scf_iteration", iteration=1, energy=-75.0)
        ledger.add_summary(energy=-75.0, converged=True)
        ledger.close(0)

        record = load_run(ledger.path)
        assert record.manifest["command"] == "scf"
        assert record.manifest["config"]["molecule"] == "water"
        assert record.manifest["seed"] == 7
        assert record.manifest["argv"] == ["scf", "water"]
        assert record.manifest["config_hash"] == config_hash(
            {"basis": "6-31g", "molecule": "water"}
        )
        prov = record.manifest["provenance"]
        for key in ("package", "python", "numpy", "git_sha", "cpu_count"):
            assert key in prov
        # one explicit snapshot plus the final one written by close()
        assert [s["label"] for s in record.snapshots] == [
            "scf_iteration", "final",
        ]
        snap = record.snapshots[0]
        assert snap["iteration"] == 1
        assert snap["metrics"]["repro_iterations_total"]["series"]
        assert record.summary["exit_code"] == 0
        assert record.summary["energy"] == -75.0
        assert record.summary["finished_utc"] >= record.manifest["started_utc"]

    def test_config_hash_is_key_order_independent(self):
        a = config_hash({"x": 1, "y": [2, 3]})
        b = config_hash({"y": [2, 3], "x": 1})
        assert a == b
        assert a.startswith("sha256:")
        assert a != config_hash({"x": 2, "y": [2, 3]})

    def test_close_is_idempotent(self, tmp_path):
        ledger = _make_run(tmp_path, close=False)
        ledger.close(0)
        ledger.close(1)  # ignored: the run already finished
        assert load_run(ledger.path).summary["exit_code"] == 0

    def test_attach_profile(self, tmp_path):
        ledger = _make_run(tmp_path, close=False)
        prof = PhaseProfiler()
        with session(profiler=prof, metrics=MetricsRegistry()):
            with phase("fock_build"):
                pass
        ledger.attach_profile(prof)
        ledger.close(0)
        record = load_run(ledger.path)
        assert record.phases[0]["name"] == "fock_build"

    def test_provenance_fields(self):
        prov = provenance()
        assert prov["package"] == "repro"
        assert isinstance(prov["cpu_count"], int)
        assert "." in prov["python"]

    def test_utc_timestamps_are_tz_aware(self):
        stamp = utc_now_iso()
        assert stamp.endswith("+00:00") or stamp.endswith("Z")


class TestLoader:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(LedgerError, match="does not exist"):
            load_run(tmp_path / "nope")

    def test_missing_manifest_named(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(LedgerError, match="manifest.json"):
            load_run(tmp_path / "empty")

    def test_missing_summary_named_when_strict(self, tmp_path):
        ledger = _make_run(tmp_path, close=False)
        ledger._metrics_fh.close()  # simulate a crashed run
        with pytest.raises(LedgerError, match="summary.json"):
            load_run(ledger.path)
        record = load_run(ledger.path, strict=False)
        assert record.summary is None

    def test_missing_manifest_field_named(self, tmp_path):
        ledger = _make_run(tmp_path)
        path = ledger.path / "manifest.json"
        doc = json.loads(path.read_text())
        del doc["config_hash"]
        path.write_text(json.dumps(doc))
        with pytest.raises(LedgerError, match="config_hash"):
            load_run(ledger.path)

    def test_corrupt_metrics_line_named(self, tmp_path):
        ledger = _make_run(tmp_path)
        path = ledger.path / "metrics.jsonl"
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(LedgerError, match="line"):
            load_run(ledger.path)

    def test_find_runs_sorted_and_tolerant(self, tmp_path):
        _make_run(tmp_path, name="a")
        _make_run(tmp_path, name="b")
        (tmp_path / "junk").mkdir()  # no manifest: skipped
        runs = find_runs(tmp_path)
        assert len(runs) == 2
        stamps = [r.manifest["started_utc"] for r in runs]
        assert stamps == sorted(stamps)


class TestSingleton:
    def test_default_is_null(self):
        ledger = get_ledger()
        assert isinstance(ledger, NullLedger)
        assert not ledger.enabled
        ledger.snapshot("anything", extra=1)  # no-op, no error
        ledger.add_summary(x=1)
        ledger.close(0)

    def test_set_and_restore(self, tmp_path):
        ledger = _make_run(tmp_path, close=False)
        with session(ledger=ledger):
            assert get_ledger() is ledger
        assert isinstance(get_ledger(), NullLedger)
        assert load_run(ledger.path).summary["exit_code"] == 0
