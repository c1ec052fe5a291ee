"""The BENCH family table: schema validation, UTC stamping, and the
properties every family and every committed history point must hold."""

import json
import pathlib

import pytest

from repro.bench.record import (
    FAMILIES,
    HISTORIES,
    append_history,
    extract,
    validate_entry,
)
from repro.obs.regress import gate, grade, load_history
from repro.obs.validate import FAIL

REPO = pathlib.Path(__file__).resolve().parent.parent


def _guard_entry(**over):
    entry = {
        "benchmark": "scf_guard",
        "wall_s": 1.0,
        "guard_s": 0.02,
        "overhead": 0.02,
        "energy_matches": True,
    }
    entry.update(over)
    return entry


class TestValidateEntry:
    def test_valid_entry_passes(self):
        validate_entry(_guard_entry())

    def test_missing_benchmark_name(self):
        with pytest.raises(ValueError, match="benchmark"):
            validate_entry({"wall_s": 1.0})

    def test_missing_field_is_named(self):
        entry = _guard_entry()
        del entry["overhead"]
        with pytest.raises(ValueError, match="'overhead'"):
            validate_entry(entry)

    def test_mistyped_field_is_named(self):
        with pytest.raises(ValueError, match="'guard_s'"):
            validate_entry(_guard_entry(guard_s="fast"))

    def test_bool_is_not_a_float(self):
        with pytest.raises(ValueError, match="'overhead'"):
            validate_entry(_guard_entry(overhead=True))

    def test_int_is_an_acceptable_float(self):
        validate_entry(_guard_entry(overhead=0))

    def test_unknown_family_is_rejected_with_the_known_names(self):
        # an undeclared family has no history file to go to
        with pytest.raises(ValueError, match="undeclared.*scf_guard"):
            validate_entry({"benchmark": "brand_new_family", "whatever": 1})

    def test_every_schema_family_requires_floats_not_bools(self):
        # guard against accidentally declaring a bool field as float
        for name, family in FAMILIES.items():
            for key, expected in family.required.items():
                assert expected in (str, float, bool, dict), (name, key)

    def test_graded_key_is_required_by_construction(self):
        # energy_matches is listed nowhere but in its flag row
        assert "energy_matches" not in FAMILIES["scf_guard"].fields
        entry = _guard_entry()
        del entry["energy_matches"]
        with pytest.raises(ValueError, match="'energy_matches'"):
            validate_entry(entry)
        with pytest.raises(ValueError, match="'energy_matches'"):
            validate_entry(_guard_entry(energy_matches=1.0))

    def test_dotted_graded_key_must_resolve(self):
        with pytest.raises(ValueError, match="ratio_gtfock_over_nwchem"):
            validate_entry({"benchmark": "fock_table3", "wall_s": 1.0, "setup_s": 0.5,
                            "molecules": {"C24H12": {"max_cores": 3888}}})


class TestAppendHistory:
    def test_creates_file_and_stamps_utc(self, tmp_path):
        # the family names the file and its description
        written = append_history(_guard_entry(), tmp_path)
        assert written["timestamp"].endswith("+00:00")
        doc = json.loads((tmp_path / "BENCH_fock.json").read_text())
        assert doc["description"] == HISTORIES["BENCH_fock.json"]
        assert len(doc["history"]) == 1
        assert doc["history"][0]["timestamp"] == written["timestamp"]

    def test_appends_preserving_existing_entries(self, tmp_path):
        append_history(_guard_entry(), tmp_path)
        append_history(_guard_entry(overhead=0.03), tmp_path)
        doc = json.loads((tmp_path / "BENCH_fock.json").read_text())
        assert [e["overhead"] for e in doc["history"]] == [0.02, 0.03]

    def test_invalid_entry_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            append_history({"benchmark": "scf_guard"}, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_input_entry_is_not_mutated(self, tmp_path):
        entry = _guard_entry()
        append_history(entry, tmp_path)
        assert "timestamp" not in entry


#: families whose points stay in their history, unedited, after their rows
#: moved to the ``perfbench`` family (docs/BENCH_FAMILIES.md)
RETIRED = {"fock_simulator": "BENCH_fock.json", "fock_critpath": "BENCH_fock.json"}


def _committed():
    """``(file, entry)`` for every point of every declared family."""
    return [
        (name, entry) for name in HISTORIES
        for entry in load_history(REPO / name)
        if entry["benchmark"] not in RETIRED
    ]


def _latest() -> dict[str, dict]:
    return {entry["benchmark"]: entry for _, entry in _committed()}


class TestFamilyTable:
    """Properties over the table and the committed trajectories."""

    def test_every_committed_entry_belongs_to_its_familys_file(self):
        assert _committed()
        for name, entry in _committed():
            assert FAMILIES[entry["benchmark"]].history == name

    def test_every_family_has_a_committed_point_that_validates(self):
        latest = _latest()
        assert latest.keys() == FAMILIES.keys()
        for entry in latest.values():
            validate_entry(entry)

    def test_every_committed_value_has_its_declared_type(self):
        # older points predate some fields: complete them from the
        # family's latest point, so only what they carry is judged
        latest = _latest()
        for _, entry in _committed():
            validate_entry({**latest[entry["benchmark"]], **entry})

    def test_every_critpath_point_validates(self):
        # the critical-path rows are graded on perfbench's traced pass
        points = [e for _, e in _committed()
                  if e["benchmark"] == "perfbench"]
        assert len(points) >= 2
        for entry in points:
            validate_entry(entry)
            assert entry["critpath_explained_ratio"] >= 0.95

    def test_retired_families_keep_their_points(self):
        for name, history in RETIRED.items():
            assert name not in FAMILIES
            assert any(e["benchmark"] == name
                       for e in load_history(REPO / history))

    def test_every_spec_key_resolves_in_the_latest_entry(self):
        for name, entry in _latest().items():
            for spec in FAMILIES[name].specs:
                assert extract(entry, spec.key) is not None, spec.label

    @pytest.mark.parametrize("quick", [False, True])
    def test_gate_and_grade_agree_on_the_same_point(self, tmp_path, quick):
        for name, entry in _latest().items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"history": [entry]}))
            graded = {
                f.spec.label: f.status
                for f in grade([path], quick=quick).findings
                if f.kind != "relative"
            }
            gated = {
                f.spec.label: f.status for f in gate(entry, quick).findings
            }
            assert gated == graded, name

    def test_tripped_spec_fails_the_gate_with_the_metric_named(self, tmp_path):
        entry = _guard_entry(overhead=0.051)
        with pytest.raises(ValueError, match=r"scf_guard\.overhead = 0\.051"):
            gate(entry)
        path = tmp_path / "BENCH_fock.json"
        path.write_text(json.dumps({"history": [entry]}))
        assert grade([path]).status == FAIL
        with pytest.raises(ValueError, match=r"scf_guard\.energy_matches"):
            gate(_guard_entry(energy_matches=False))
        # the gate validates first: a malformed point never gets graded
        with pytest.raises(ValueError, match="missing required field"):
            gate({"benchmark": "scf_guard"})

    def test_quick_gate_skips_machine_dependent_rows(self):
        entry = dict(_latest()["perfbench"], tracing_tax_ratio=9.0)
        assert gate(entry, quick=True).passed
        with pytest.raises(ValueError, match="tracing_tax_ratio"):
            gate(entry)

    def test_relative_rows_are_left_to_the_observatory(self):
        report = gate(_guard_entry())
        assert {f.kind for f in report.findings} == {"absolute", "flag"}
