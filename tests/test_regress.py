"""Regression observatory: robust baselines and the PASS/WARN/FAIL grader."""

import json

import pytest

from repro.bench.record import all_specs
from repro.obs.regress import (
    CheckReport,
    MetricSpec,
    extract,
    grade,
    grade_entries,
    grade_series,
    history_text,
    load_history,
    robust_baseline,
    series_for,
)
from repro.obs.validate import FAIL, PASS, WARN


def _spec(**kw):
    base = dict(benchmark="bench", key="t", direction="lower",
                kind="relative", warn=1.3, fail=2.0)
    base.update(kw)
    return MetricSpec(**base)


def _entries(values, key="t"):
    return [
        {"benchmark": "bench", "timestamp": f"2026-01-{i+1:02d}", key: v}
        for i, v in enumerate(values)
    ]


class TestExtraction:
    def test_dotted_path(self):
        entry = {"a": {"b": {"c": 2.5}}}
        assert extract(entry, "a.b.c") == 2.5

    def test_wildcard_averages_mapping(self):
        entry = {"molecules": {"x": {"ratio": 1.0}, "y": {"ratio": 3.0}}}
        assert extract(entry, "molecules.*.ratio") == 2.0

    def test_missing_returns_none(self):
        assert extract({"a": 1}, "b") is None
        assert extract({"a": {"b": 1}}, "a.c") is None

    def test_bool_coerces_to_float(self):
        assert extract({"ok": True}, "ok") == 1.0
        assert extract({"ok": False}, "ok") == 0.0


class TestRobustBaseline:
    def test_median_and_mad(self):
        med, sigma = robust_baseline([1.0, 1.0, 1.0, 100.0])
        assert med == 1.0
        assert sigma == 0.0  # MAD ignores the single outlier

    def test_single_point(self):
        med, sigma = robust_baseline([2.0])
        assert med == 2.0
        assert sigma == 0.0

    def test_noisy_series_has_positive_sigma(self):
        _, sigma = robust_baseline([1.0, 1.1, 0.9, 1.05, 0.95])
        assert sigma > 0


class TestGradeSeries:
    def test_flat_history_passes(self):
        f = grade_series(_spec(), [1.0, 1.01, 0.99, 1.0, 1.02], ["t"] * 5)
        assert f.status == PASS

    def test_flat_noisy_history_passes(self):
        values = [1.0, 1.3, 0.8, 1.1, 0.9, 1.25, 1.28]
        f = grade_series(_spec(), values, ["t"] * len(values))
        assert f.status == PASS

    def test_spike_fails(self):
        f = grade_series(_spec(), [1.0, 1.0, 1.01, 0.99, 2.5], ["t"] * 5)
        assert f.status == FAIL
        assert f.ratio >= 2.0

    def test_drift_warns(self):
        f = grade_series(_spec(), [1.0, 1.0, 1.0, 1.0, 1.45], ["t"] * 5)
        assert f.status == WARN

    def test_higher_is_better_direction(self):
        spec = _spec(direction="higher")
        f = grade_series(spec, [5.0, 5.0, 5.0, 2.0], ["t"] * 4)
        assert f.status == FAIL
        f = grade_series(spec, [5.0, 5.0, 5.0, 5.1], ["t"] * 4)
        assert f.status == PASS

    def test_higher_band_wider_than_a_quarter_still_fails(self):
        # sigma > median / 4: median - 4 sigma is below zero, yet a 10x
        # drop must fail, as a 10x rise of a lower metric would
        prior = [39.6, 41.1, 36.0, 29.6, 42.7, 72.1, 57.0, 77.6]
        med, sigma = robust_baseline(prior)
        assert med - 4.0 * sigma < 0
        spec = _spec(direction="higher")
        values = prior + [prior[-1] / 10.0]
        assert grade_series(spec, values, ["t"] * 9).status == FAIL
        values = prior + [30.0]
        assert grade_series(spec, values, ["t"] * 9).status == PASS

    def test_no_baseline_yet_passes(self):
        f = grade_series(_spec(), [1.0], ["t"])
        assert f.status == PASS
        assert "no baseline" in f.note

    def test_absolute_bounds(self):
        spec = _spec(kind="absolute", warn=1e-11, fail=1e-10)
        assert grade_series(spec, [5e-12], ["t"]).status == PASS
        assert grade_series(spec, [5e-11], ["t"]).status == WARN
        assert grade_series(spec, [5e-9], ["t"]).status == FAIL

    def test_absolute_higher_direction(self):
        spec = _spec(kind="absolute", direction="higher", warn=0.9, fail=0.5)
        assert grade_series(spec, [0.95], ["t"]).status == PASS
        assert grade_series(spec, [0.7], ["t"]).status == WARN
        assert grade_series(spec, [0.3], ["t"]).status == FAIL

    def test_flag_kind(self):
        spec = _spec(kind="flag")
        assert grade_series(spec, [1.0], ["t"]).status == PASS
        assert grade_series(spec, [0.0], ["t"]).status == FAIL


def _history_file(tmp_path, values, name="BENCH_x.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"description": "t", "history": _entries(values)}))
    return path


def _graded(path, specs, **kw):
    """One history file graded against ``specs`` (``grade`` grades every
    row of the family table)."""
    return grade_entries(load_history(path), specs, **kw)


class TestGrade:
    def test_exit_codes(self, tmp_path):
        specs = (_spec(),)
        ok = _graded(_history_file(tmp_path, [1.0, 1.0, 1.0]), specs)
        assert ok.status == PASS
        assert ok.exit_code == 0
        bad = _graded(_history_file(tmp_path, [1.0, 1.0, 1.0, 9.0]), specs)
        assert bad.status == FAIL
        assert bad.exit_code == 1

    def test_warn_does_not_fail_the_gate(self):
        report = CheckReport()
        report.findings.append(
            grade_series(_spec(), [1.0, 1.0, 1.0, 1.45], ["t"] * 4))
        assert report.status == WARN
        assert report.exit_code == 0

    def test_quick_filters_specs(self, tmp_path):
        specs = (_spec(quick=False), _spec(key="u", quick=True))
        path = _history_file(tmp_path, [1.0, 1.0])
        report = _graded(path, specs, quick=True)
        graded_keys = {f.spec.key for f in report.findings}
        assert "t" not in graded_keys

    def test_missing_benchmark_is_skipped_not_failed(self):
        report = grade([])
        assert report.findings == []
        assert report.skipped
        assert report.exit_code == 0

    def test_window_limits_baseline(self, tmp_path):
        # old regression ages out of the window: the recent points rule
        values = [9.0] + [1.0] * 10
        report = _graded(_history_file(tmp_path, values), (_spec(),), window=4)
        assert report.findings[0].status == PASS

    def test_runs_join_the_gate(self, tmp_path):
        from repro.obs.manifest import RunLedger

        ledger = RunLedger(tmp_path / "runs" / "bad", command="scf")
        ledger.add_summary(converged=False)
        ledger.close(1)
        report = grade([], runs=tmp_path / "runs")
        assert report.status == FAIL
        labels = {f.spec.label for f in report.findings}
        assert "run:bad.exit_code" in labels
        assert "run:bad.converged" in labels

    def test_text_renders_counts(self, tmp_path):
        report = _graded(_history_file(tmp_path, [1.0, 1.0]), (_spec(),))
        text = report.text()
        assert "bench.t" in text
        assert "pass" in text.lower()

    def test_text_renders_bounds_as_inclusive(self, tmp_path):
        # pass iff latest <= warn: a zero bound must not read "<0"
        specs = (
            _spec(kind="absolute", warn=0.0, fail=0.0),
            _spec(key="u", kind="absolute", direction="higher",
                  warn=0.95, fail=0.8),
        )
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"history": [
            {"benchmark": "bench", "t": 0, "u": 1.0},
        ]}))
        report = _graded(path, specs)
        assert report.status == PASS
        assert " <=0 " in report.text()
        assert " >=0.95 " in report.text()

    def test_default_specs_are_the_family_table(self, tmp_path):
        path = tmp_path / "BENCH_fock.json"
        path.write_text(json.dumps({"history": [
            {"benchmark": "scf_guard", "overhead": 0.2,
             "energy_matches": True},
        ]}))
        report = grade([path])
        assert report.failures == ["scf_guard.overhead = 0.2 (bound 0.05)"]


class TestHistoryIO:
    def test_load_history(self, tmp_path):
        doc = {"description": "x", "history": _entries([1.0, 2.0])}
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(doc))
        entries = load_history(path)
        assert [e["t"] for e in entries] == [1.0, 2.0]

    def test_load_history_missing_file(self, tmp_path):
        assert load_history(tmp_path / "absent.json") == []

    def test_series_for_filters_by_benchmark(self):
        entries = _entries([1.0, 2.0]) + [{"benchmark": "other", "t": 9.0}]
        values, stamps = series_for(entries, _spec())
        assert values == [1.0, 2.0]
        assert len(stamps) == 2

    def test_history_text(self, tmp_path):
        path = tmp_path / "BENCH_fock.json"
        path.write_text(json.dumps({"history": [
            {"benchmark": "scf_guard", "overhead": v, "energy_matches": True}
            for v in (0.01, 0.011, 0.012)
        ]}))
        text = history_text([path])
        assert "scf_guard.overhead" in text
        assert "0.012" in text


class TestDefaultSpecs:
    def test_default_specs_cover_committed_benchmarks(self):
        families = {s.benchmark for s in all_specs()}
        assert {
            "eri_kernels", "fock_table3", "fock_chaos",
            "scf_guard", "phase_profiler", "perfbench",
        } <= families

    def test_labels_are_unique(self):
        labels = [s.label for s in all_specs()]
        assert len(labels) == len(set(labels))


class TestGradeRuns:
    """Ledger-summary gates: critpath, warm-store recompute, J/K balance."""

    def _run_dir(self, tmp_path, name, **summary):
        from repro.obs.manifest import RunLedger

        ledger = RunLedger(
            tmp_path / name, command="scf",
            config={"molecule": "water"}, molecule="water",
        )
        ledger.add_summary(**summary)
        ledger.close(0)
        return ledger

    def _findings(self, tmp_path):
        from repro.obs.regress import _grade_runs

        return {f.spec.key: f for f in _grade_runs(tmp_path)}

    def test_critpath_decomposition_gate(self, tmp_path):
        self._run_dir(
            tmp_path, "good",
            critpath={"decomposition_ok": True, "max_residual": 0.0},
        )
        by_key = self._findings(tmp_path)
        assert by_key["critpath_decomposition_ok"].status == PASS

    def test_critpath_decomposition_failure_names_residual(self, tmp_path):
        self._run_dir(
            tmp_path, "bad",
            critpath={"decomposition_ok": False, "max_residual": 3e-4},
        )
        f = self._findings(tmp_path)["critpath_decomposition_ok"]
        assert f.status == FAIL
        assert "3e-04" in f.note or "0.0003" in f.note

    def test_warm_store_with_recomputes_fails(self, tmp_path):
        self._run_dir(
            tmp_path, "warm",
            eri_store={"computed": 12, "warm_start": True},
        )
        f = self._findings(tmp_path)["store_zero_recompute"]
        assert f.status == FAIL
        assert "12" in f.note

    def test_warm_store_fully_served_passes(self, tmp_path):
        self._run_dir(
            tmp_path, "warm",
            eri_store={"computed": 0, "from_store": 99, "warm_start": True},
        )
        assert self._findings(tmp_path)["store_zero_recompute"].status == PASS

    def test_a_store_at_another_tau_is_no_warm_start(self, tmp_path):
        """An RHF at a tau its store was not filled at refills the store:
        its summary says it did not start warm, so the zero-recompute flag
        is not graded; the next run at that tau starts warm and passes."""
        import warnings

        from repro.chem.builders import water
        from repro.integrals.store import StoreInvalidatedWarning
        from repro.obs import RunLedger, load_run, session
        from repro.obs.regress import _grade_runs
        from repro.scf.hf import RHF

        store = str(tmp_path / "store")
        RHF(water(), integral_store=store).run()
        for name in ("refill", "warm"):
            ledger = RunLedger(tmp_path / "runs" / name, command="scf",
                               config={"molecule": "water"}, molecule="water")
            with session(ledger=ledger), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                RHF(water(), integral_store=store, tau=1e-5).run()
            ledger.close(0)
            refilled = any(w.category is StoreInvalidatedWarning for w in caught)
            assert refilled == (name == "refill")
            summary = load_run(tmp_path / "runs" / name).summary["eri_store"]
            assert summary["warm_start"] == (name == "warm")
            assert (summary["computed"] > 0) == (name == "refill")
        findings = _grade_runs(tmp_path / "runs")
        assert findings and all(f.status == PASS for f in findings)
        assert [f.spec.benchmark for f in findings
                if f.spec.key == "store_zero_recompute"] == ["run:warm"]

    def test_cold_store_not_gated(self, tmp_path):
        self._run_dir(
            tmp_path, "cold",
            eri_store={"computed": 500, "warm_start": False},
        )
        assert "store_zero_recompute" not in self._findings(tmp_path)

    def test_serial_jk_not_gated(self, tmp_path):
        """A ledger an older run wrote with a ``jk_threads`` block --
        serial, or a 5x worker skew that once failed -- grades its exit
        code alone: the block is ignored."""
        from repro.obs.regress import _grade_runs

        self._run_dir(
            tmp_path, "serial", jk_threads={"workers": 0, "balance": None},
        )
        self._run_dir(
            tmp_path, "skewed", jk_threads={"workers": 4, "balance": 5.0},
        )
        findings = _grade_runs(tmp_path)
        assert [f.spec.key for f in findings] == ["exit_code"] * 2
        assert all(f.status == PASS for f in findings)

    def test_critpath_family_in_default_specs(self):
        labels = {s.label for s in all_specs()}
        assert {
            "perfbench.critpath_explained_ratio",
            "perfbench.whatif_max_rel_err",
        } <= labels
