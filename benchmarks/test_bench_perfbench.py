"""perfbench as a BENCH family: one point per untraced + traced pass.

``python3 -m perfbench`` is the ruler every performance claim is measured
with; this family gives what it reports a history that ``repro perf
check`` grades.  ``measure`` runs it from the repo root as a child
process at seed 0, once untraced and once with ``--trace 1``, and reads
each pass's final JSON line and ``--out`` document (:func:`read`):

* each workload's end-to-end metrics: the value of the final line (the
  median of the rounds; the max for ``peak_rss_mb``) with the min and
  max of the rounds from the document;
* ``correct``: every output check of both passes held;
* the per-layer rows of the traced pass that the family table grades:
  the simulator's tracing tax on ``sim_traced``, the trace export rate,
  the critical-path analysis with and without its re-simulation, its
  explained ratio and worst what-if error, and the NWChem baseline's
  simulate wall on ``sim_sweep``.

``python -m benchmarks perfbench [--quick]``; ``--quick`` runs both
passes with ``--smoke`` (one round of the small variants: CI's run of
every seam perfbench patches), grades only the machine-independent rows
and appends nothing.  perfbench itself is only read, never changed.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 0


def run_pass(traced: bool, smoke: bool) -> tuple[dict, dict]:
    """One perfbench pass: ``(final JSON line, --out document)``."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-perfbench-") as tmp:
        out = pathlib.Path(tmp) / "result.json"
        args = ["--seed", str(SEED), "--trace", str(int(traced)),
                "--out", str(out)] + (["--smoke"] if smoke else [])
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench", *args],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]), json.loads(out.read_text())
        except (IndexError, OSError, ValueError):
            raise AssertionError(
                f"perfbench {' '.join(args[:4])} gave no result "
                f"(exit {proc.returncode})"
            ) from None


def read(untraced: tuple[dict, dict], traced: tuple[dict, dict],
         wall_s: float) -> dict:
    """The family's point from two passes' ``(final line, document)``."""
    (line, doc), (tline, _) = untraced, traced
    entry = {
        "benchmark": "perfbench",
        "seed": doc["seed"],
        "wall_s": round(wall_s, 1),
        "correct": all(p["correct"] and p["failed"] == 0
                       for p in (line, tline)),
    }
    for w, res in doc["workloads"].items():
        entry[w] = {
            name: {"value": line["metrics"][f"{w}/{name}"]["value"],
                   **{k: s[k] for k in ("min", "max") if k in s}}
            for name, s in res["end_to_end"].items()
        }

    def layer(w: str, name: str) -> float:
        return tline["metrics"][f"{w}/{name}"]["value"]

    def obs(name: str) -> float:
        return layer("sim_traced", f"obs.{name}")

    entry.update({
        key: round(value, 6) for key, value in {
            "tracing_tax_ratio": obs("tracing_tax_ratio"),
            "export_mb_per_s":
                obs("trace_export_mb") / obs("trace_export_s"),
            "critpath_analyze_s": obs("critpath_analyze_s"),
            "analyze_noresim_s":
                obs("critpath_analyze_s") - obs("critpath_resim_s"),
            "critpath_explained_ratio": obs("critpath_explained_ratio"),
            "whatif_max_rel_err": obs("whatif_max_rel_err"),
            "nwchem_sim_s": layer("sim_sweep", "fock.nwchem_sim_s"),
        }.items()
    })
    return entry


def measure(quick: bool = False) -> tuple[dict, str]:
    """Both perfbench passes, read into one point."""
    t0 = time.perf_counter()
    passes = [run_pass(traced, quick) for traced in (False, True)]
    entry = read(*passes, wall_s=time.perf_counter() - t0)
    return entry, render(entry)


def render(entry: dict) -> str:
    lines = [
        f"perfbench seed {entry['seed']}: "
        f"{'correct' if entry['correct'] else 'INCORRECT'}, untraced + "
        f"traced pass in {entry['wall_s']:.1f} s",
        f"{'workload':<11} {'setup s':>8} {'solution s':>11} "
        f"{'(min - max)':>19} {'peak MiB':>9}",
    ]
    for w in ("scf_direct", "scf_stored", "sim_sweep", "sim_traced"):
        e2e = entry[w]
        tts = e2e["time_to_solution_s"]
        lines.append(
            f"{w:<11} {e2e['setup_s']['value']:>8.3f} {tts['value']:>11.4f} "
            f"({tts['min']:>8.4f} - {tts['max']:.4f}) "
            f"{e2e['peak_rss_mb']['value']:>9.1f}"
        )
    lines.append(
        f"tracing tax x{entry['tracing_tax_ratio']:.2f}; export "
        f"{entry['export_mb_per_s']:.1f} MB/s; critical path "
        f"{entry['critpath_analyze_s']:.3f} s "
        f"({entry['analyze_noresim_s']:.3f} s without re-simulation), "
        f"explained {entry['critpath_explained_ratio']:.3f}, worst what-if "
        f"{entry['whatif_max_rel_err']:.1%}; NWChem simulate "
        f"{entry['nwchem_sim_s']:.3f} s"
    )
    return "\n".join(lines)
