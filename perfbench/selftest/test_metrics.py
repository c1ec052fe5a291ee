"""BENCHMARK.json is metrics.py rendered, and fits the contract's limits."""

import json
import re

from perfbench import harness, metrics
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_metrics_py_rendered():
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == metrics.benchmark_json()


def test_contract_limits():
    doc = metrics.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer")
             for x in doc[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(UNIT.match(m["unit"])
               for k in ("end_to_end", "per_layer") for m in doc[k])
    assert all(0 <= m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = metrics.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_workload_is_described_and_runnable():
    assert list(metrics.WORKLOADS) == list(WORKLOADS)
