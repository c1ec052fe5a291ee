"""The simulator's own cost: events/s, tasks/s, tracing tax, export MB/s,
trace-reading analysis.

Every table of the paper's evaluation is produced by the discrete-event
GTFock simulator, so its wall clock bounds how far the reproduction can
scale (ROADMAP item 4).  This benchmark runs ``simulate_gtfock`` on the
scaled C54H18 stand-in at 12/192/768/3888 cores three ways -- tracing
off, tracing on, tracing on with a ``SimCapture`` -- then exports the
largest cell's Chrome trace, runs the critical-path analyzer over its
capture without re-simulation (``analyze_noresim_s``: what reading the
trace costs) -- the ``fock_simulator`` family of the BENCH runner
(``python -m benchmarks fock_simulator [--quick]``).  The NWChem
baseline is timed beside
it -- ``simulate_nwchem`` on C24H12 at 12 and 3888 cores
(``nwchem_wall_s``, ``counter_accesses_per_s``) -- and so is the all-rank
prefetch footprint of the largest GTFock cell (``footprint_s``).
``--quick`` (CI) runs C24H12 at 12/192 cores plus one NWChem cell and
checks the exported file against the one-shot encoding of
``chrome_trace()``.  The measurement drives public API only, so it also
runs against an older ``src/`` via ``PYTHONPATH`` for a before/after
pair.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro.bench.harness import benchmark_molecules, molecule_setup
from repro.fock import prefetch
from repro.fock.partition import StaticPartition
from repro.fock.simulate import SimCapture, simulate_gtfock, simulate_nwchem
from repro.obs.critpath import analyze
from repro.obs.trace import NullTracer, Tracer, _coerce

CORES = (12, 192, 768, 3888)
NWCHEM_CORES = (12, 3888)
ROUNDS = 3


def _best(fn, rounds: int) -> tuple[float, object]:
    """Min-of-N wall (scheduler noise is one-sided) and the last result."""
    walls, out = [], None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
    return min(walls), out


def _setup(key: str):
    name, mol = next(
        (n, m) for n, m in benchmark_molecules().items() if n.startswith(key)
    )
    return name, molecule_setup(name, mol)


def _footprints(setup, nproc: int):
    """Every rank's prefetch ``(elements, calls)``, the way this ``src/``
    computes them: all ranks at once, or (older trees) mask by mask."""
    part = StaticPartition.build(setup.basis.nshells, nproc)
    if hasattr(prefetch, "rank_footprints"):
        return prefetch.rank_footprints(setup.screen, part)
    out = []
    for p in range(nproc):
        fp = prefetch.block_footprint(setup.screen, part.task_block(p))
        out.append((fp.elements, prefetch.ga_calls_for_footprint(
            fp, part.row_shell_bounds, part.col_shell_bounds
        )))
    return out


def run_nwchem_bench(quick: bool, rounds: int) -> dict:
    """The centralized-counter baseline: C24H12 over ``NWCHEM_CORES``."""
    name, setup = _setup("C24H12")
    cells = {}
    for cores in NWCHEM_CORES[:1] if quick else NWCHEM_CORES:
        wall, res = _best(
            lambda: simulate_nwchem(
                setup.basis, setup.screen, cores, config=setup.config,
                costs=setup.costs, molecule_name=name,
            ),
            rounds,
        )
        cells[str(cores)] = {
            "wall_s": round(wall, 4),
            "counter_accesses": res.counter_accesses,
            "counter_accesses_per_s": round(res.counter_accesses / wall, 1),
        }
    accesses = sum(c["counter_accesses"] for c in cells.values())
    wall = sum(c["wall_s"] for c in cells.values())
    return {
        "nwchem_molecule": name,
        "nwchem_wall_s": round(wall, 4),
        "counter_accesses_per_s": round(accesses / wall, 1),
        "nwchem_cells": cells,
    }


def measure(quick: bool = False) -> tuple[dict, str]:
    name, setup = _setup("C24H12" if quick else "C54H18")
    rounds = 1 if quick else ROUNDS

    def sim(cores, **kw):
        return simulate_gtfock(
            setup.basis, setup.screen, cores, config=setup.config,
            costs=setup.costs, molecule_name=name, **kw,
        )

    def sim_traced(cores):
        tracer = Tracer("bench-sim")
        sim(cores, tracer=tracer)
        return tracer

    def sim_captured(cores):
        capture = SimCapture()
        sim(cores, tracer=Tracer("bench-sim"), capture=capture)
        return capture

    cells = {}
    traced = capture = None
    for cores in CORES[:2] if quick else CORES:
        off, res = _best(lambda: sim(cores, tracer=NullTracer()), rounds)
        on, traced = _best(lambda: sim_traced(cores), rounds)
        cap, capture = _best(lambda: sim_captured(cores), rounds)
        pops = sum(1 for action, _, _ in capture.events if action == "pop")
        cells[str(cores)] = {
            "nproc": res.nproc,
            "wall_off_s": round(off, 4),
            "wall_on_s": round(on, 4),
            "wall_capture_s": round(cap, 4),
            "events_per_s": round(pops / off, 1),
            "tasks_per_s": round(res.ntasks / off, 1),
            "wall_per_rank_ms": round(1e3 * off / res.nproc, 4),
        }
    with tempfile.TemporaryDirectory(prefix="repro-bench-sim-") as tmp:
        path = os.path.join(tmp, "trace.json")
        export_s, _ = _best(lambda: traced.write_chrome(path), rounds)
        export_mb = os.path.getsize(path) / 1e6
        if quick:
            # the streamed file is the stock encoder's text, byte for byte
            with open(path) as fh:
                assert fh.read() == json.dumps(
                    traced.chrome_trace(), default=_coerce)
    analyze_s, _ = _best(lambda: analyze(capture, resim=False), rounds)
    top = cells[str(max(int(c) for c in cells))]
    footprint_s, _ = _best(lambda: _footprints(setup, top["nproc"]), rounds)
    entry = {
        "benchmark": "fock_simulator",
        "molecule": name,
        "wall_s": round(sum(c["wall_off_s"] for c in cells.values()), 4),
        "events_per_s": top["events_per_s"],
        "tasks_per_s": top["tasks_per_s"],
        "tracing_tax_ratio": round(top["wall_on_s"] / top["wall_off_s"], 4),
        "capture_tax_ratio": round(top["wall_capture_s"] / top["wall_off_s"], 4),
        "trace_events": len(traced.events),
        "export_mb": round(export_mb, 3),
        "export_mb_per_s": round(export_mb / export_s, 2),
        "analyze_noresim_s": round(analyze_s, 4),
        "footprint_s": round(footprint_s, 5),
        "cells": cells,
        **run_nwchem_bench(quick, rounds),
    }
    assert entry["trace_events"] > 0
    assert entry["counter_accesses_per_s"] > 0
    return entry, render(entry)


def render(entry: dict) -> str:
    lines = [
        f"simulator cost on {entry['molecule']}: "
        f"{entry['wall_s']:.3f} s untraced over {len(entry['cells'])} cells",
        f"{'cores':>6} {'ranks':>6} {'off s':>8} {'on s':>8} {'capture s':>10} "
        f"{'events/s':>10} {'tasks/s':>10} {'ms/rank':>8}",
    ]
    for cores, c in entry["cells"].items():
        lines.append(
            f"{cores:>6} {c['nproc']:>6} {c['wall_off_s']:>8.3f} "
            f"{c['wall_on_s']:>8.3f} {c['wall_capture_s']:>10.3f} "
            f"{c['events_per_s']:>10.0f} {c['tasks_per_s']:>10.0f} "
            f"{c['wall_per_rank_ms']:>8.3f}"
        )
    lines.append(
        f"tracing tax x{entry['tracing_tax_ratio']:.2f} "
        f"(capture x{entry['capture_tax_ratio']:.2f}); export "
        f"{entry['export_mb']:.1f} MB ({entry['trace_events']} events) at "
        f"{entry['export_mb_per_s']:.1f} MB/s; analysis without "
        f"re-simulation {1e3 * entry['analyze_noresim_s']:.1f} ms; all-rank "
        f"footprints {1e3 * entry['footprint_s']:.2f} ms"
    )
    lines.append(
        f"NWChem baseline on {entry['nwchem_molecule']}: "
        f"{entry['nwchem_wall_s']:.3f} s over {len(entry['nwchem_cells'])} "
        f"cells, {entry['counter_accesses_per_s']:.0f} counter accesses/s"
    )
    return "\n".join(lines)
