"""Parent side: rounds of fresh children, medians, and the result document.

Noise protocol (see README.md for why each rule exists):

* a run is ``rounds`` fresh child processes per workload, each doing
  set-up once and the timed body once; timings are the median of the
  rounds, with min, max and n beside them;
* when one command runs several workloads, rounds are interleaved
  (w1 w2 w3 w4, x rounds) so a busy minute costs each workload one sample;
* an untimed throw-away child imports ``repro`` first, so round 1 is not
  the only cold-page-cache sample;
* children run single-threaded with a fixed hash seed;
* ``setup_s`` and ``time_to_solution_s`` are wall seconds scaled by the
  host-speed probes the child interleaves with the work (``child.HostClock``);
  the raw walls are printed as diagnostics.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.workloads import GOLDENS, check_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
#: one round is budgeted ten seconds of ``--seconds``; never under three
SECONDS_PER_ROUND = 10
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150

_WARMUP = (
    "import repro.scf, repro.scf.fock, repro.integrals.engine, "
    "repro.integrals.store, repro.bench.harness, repro.fock.simulate, "
    "repro.obs.trace, repro.obs.critpath"
)


def rounds_for(seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / SECONDS_PER_ROUND))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("REPRO_JK_THREADS", "REPRO_FULL"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def warm_up() -> None:
    subprocess.run([sys.executable, "-c", _WARMUP], env=child_env(),
                   cwd=ROOT, check=False, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


def run_child(workload: str, seed: int, *, smoke: bool = False,
              traced: bool = False, regen: bool = False) -> dict | None:
    """One round in a fresh process; None if it crashed or timed out."""
    cmd = [sys.executable, "-m", "perfbench", "--child", workload,
           "--seed", str(seed), "--workdir", str(WORKDIR),
           "--trace", "1" if traced else "0",
           "--t-spawn", repr(time.monotonic())]
    if smoke:
        cmd.append("--smoke")
    if regen:
        cmd.append("--regen-goldens")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def stat(values: list[float]) -> dict:
    """Median of the rounds with min, max and n beside it."""
    return {
        "value": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values),
        "spread": (max(values) - min(values)) / statistics.median(values),
    }


def count_checks(workload: str, smoke: bool, children: list) -> tuple[int, int]:
    """(attempted, failed); a crashed child fails every one of its checks."""
    names = check_names(workload, smoke)
    failed = sum(
        1 for child in children for name in names
        if child is None or not child["checks"].get(name, False)
    )
    return len(names) * len(children), failed


def summarize_untraced(workload: str, smoke: bool, children: list) -> dict:
    """End-to-end metrics and diagnostics of one workload's rounds."""
    attempted, failed = count_checks(workload, smoke, children)
    alive = [c for c in children if c is not None]
    out = {"attempted": attempted, "failed": failed, "rounds": len(children)}
    if not alive:
        return out
    rss = [c["rss_mb"] for c in alive]
    body = stat([c["body_s"] for c in alive])
    probe = stat([c["probe_s"] for c in alive])
    out["end_to_end"] = {
        "setup_s": stat([c["setup_s"] for c in alive]),
        "time_to_solution_s": body,
        # memory is a ceiling, not a typical value: the max over children
        "peak_rss_mb": {**stat(rss), "value": max(rss)},
        "success_share": {"value": (attempted - failed) / attempted,
                          "n": attempted},
    }
    out["diagnostics"] = {
        # what a stopwatch would have read, before scaling by the probes
        "wall.setup_s": statistics.median(c["setup_wall_s"] for c in alive),
        "wall.time_to_solution_s": statistics.median(
            c["body_wall_s"] for c in alive),
        "bench.round_spread": body["spread"],
        "host.probe_s": probe["value"],
        "host.probe_spread": probe["spread"],
        "host.cpu_share": statistics.median(c["cpu_share"] for c in alive),
    }
    return out


def summarize_traced(workload: str, smoke: bool, before, traced, after) -> dict:
    """Per-layer metrics from the traced round of a traced pass.

    The untraced rounds before and after it give the tracing overhead
    with any linear drift of the host cancelled.
    """
    attempted, failed = count_checks(workload, smoke, [before, traced, after])
    out = {"attempted": attempted, "failed": failed, "rounds": 1}
    if before is None or traced is None or after is None:
        return out
    untraced_body_s = (before["body_s"] + after["body_s"]) / 2
    layer = dict(traced["layers"])
    layer["bench.trace_overhead_ratio"] = traced["body_s"] / untraced_body_s
    layer["host.probe_s"] = traced["probe_s"]
    layer["host.cpu_share"] = traced["cpu_share"]
    out["per_layer"] = {name: {"value": layer[name]} for name in PER_LAYER}
    out["trace_file"] = traced["trace_file"]
    out["spans"] = traced["spans"]
    out["traced_body_s"] = traced["body_s"]
    out["untraced_body_s"] = untraced_body_s
    return out


def run_pass(workloads: list[str], seed: int, *, rounds: int,
             traced: bool, smoke: bool) -> dict:
    """Run the untraced or the traced pass over ``workloads``."""
    WORKDIR.mkdir(exist_ok=True)
    warm_up()
    children: dict[str, list] = {w: [] for w in workloads}
    passes = [False, True, False] if traced else [False] * rounds
    for is_traced in passes:
        for w in workloads:
            children[w].append(
                run_child(w, seed, smoke=smoke, traced=is_traced))
    doc = {
        "seed": seed, "smoke": smoke, "traced": traced,
        "rounds": 1 if traced else rounds, "workloads": {},
    }
    for w in workloads:
        doc["workloads"][w] = (
            summarize_traced(w, smoke, *children[w]) if traced
            else summarize_untraced(w, smoke, children[w])
        )
    return doc


def regen_goldens() -> None:
    """Freeze seed-0 references from the code as it stands."""
    warm_up()
    goldens = {}
    for section, smoke in (("full", False), ("smoke", True)):
        goldens[section] = {}
        for w in WORKLOADS:
            child = run_child(w, 0, smoke=smoke, regen=True)
            if child is None or not all(child["checks"].values()):
                raise SystemExit(f"regen-goldens: {w} ({section}) failed")
            goldens[section][w] = child["golden"]
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def section_of(doc: dict) -> tuple[str, dict]:
    """The metrics section a pass reports, and its units by metric name."""
    if doc["traced"]:
        return "per_layer", {n: s["unit"] for n, s in PER_LAYER.items()}
    return "end_to_end", {n: s["unit"] for n, s in END_TO_END.items()}


def print_report(doc: dict) -> None:
    """Every metric by name with its unit, one block per workload."""
    section, unit = section_of(doc)
    tag = " [smoke]" if doc["smoke"] else ""
    for w, res in doc["workloads"].items():
        print(f"== {w}{tag}  seed {doc['seed']}  "
              f"{'traced pass' if doc['traced'] else 'untraced pass'}  "
              f"rounds {res['rounds']}  "
              f"checks {res['attempted'] - res['failed']}/{res['attempted']}")
        for name, s in res.get(section, {}).items():
            line = f"  {name:<42} {s['value']:>16.6f} {unit[name]:<8}"
            if "min" in s:
                line += (f" min {s['min']:.4f} max {s['max']:.4f}"
                         f" n {s['n']}")
            print(line)
        for name, value in res.get("diagnostics", {}).items():
            print(f"  {name:<42} {value:>16.6f} (diagnostic)")
        if "trace_file" in res:
            print(f"  chrome trace: {res['trace_file']} "
                  f"({res['spans']} spans; traced body "
                  f"{res['traced_body_s']:.3f} s vs untraced "
                  f"{res['untraced_body_s']:.3f} s)")


def contract_line(doc: dict) -> dict:
    """The last stdout line: correct, attempted, failed, metrics."""
    section, unit = section_of(doc)
    attempted = sum(r["attempted"] for r in doc["workloads"].values())
    failed = sum(r["failed"] for r in doc["workloads"].values())
    single = len(doc["workloads"]) == 1
    metrics = {}
    for w, res in doc["workloads"].items():
        for name, s in res.get(section, {}).items():
            key = name if single else f"{w}/{name}"
            metrics[key] = {"value": s["value"], "unit": unit[name]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def complete(doc: dict) -> bool:
    """Did every workload produce its metrics (no round set fully lost)?"""
    section, _ = section_of(doc)
    return all(section in res for res in doc["workloads"].values())
