"""Benchmark-suite configuration.

``test_bench_paper.py`` regenerates each artifact of the registry
:data:`repro.bench.experiments.ARTIFACTS` and prints it (run with ``-s``
to see the tables inline); the reports are also appended to
``benchmarks/out/reports.txt``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session", autouse=True)
def provenance_artifact():
    """Stamp benchmarks/out/provenance.json once per suite run.

    BENCH_*.json entries carry no machine info; this sidecar records
    which interpreter/numpy/host produced the numbers appended by the
    session so regressions can be traced to toolchain changes.
    """
    from repro.obs.manifest import provenance, utc_now_iso

    OUT_DIR.mkdir(exist_ok=True)
    doc = {"written_utc": utc_now_iso(), **provenance()}
    (OUT_DIR / "provenance.json").write_text(json.dumps(doc, indent=2) + "\n")
    yield


@pytest.fixture(scope="session")
def report_sink():
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "reports.txt"
    handle = open(path, "a")
    yield handle
    handle.close()


@pytest.fixture
def emit(report_sink, capsys):
    """Print a report and persist it."""

    def _emit(report) -> None:
        text = str(report)
        with capsys.disabled():
            print("\n" + text)
        report_sink.write(text + "\n\n")
        report_sink.flush()

    return _emit
