"""ERI kernel microbenchmark: reference kernel vs class kernel vs store.

Times the water Fock-build microbenchmark three ways, all through the
one ``build_jk`` path:

* **seed**: the per-primitive Python-loop MD reference kernel (the
  oracle engine ``tests/reference_engine.py``), the original baseline;
* **class**: the cross-quartet class-batched kernel
  (:mod:`repro.integrals.class_batch`) -- the default engine -- checked
  against the reference kernel to 1e-12 and gated at >= 10x over it;
* **stored**: conventional-SCF mode through an on-disk
  :class:`~repro.integrals.store.ERIStore` -- iteration 1 fills the
  store (its ``finalize`` writes the sparse supermatrix), iteration 2
  (``stored_iter2_s``: the first served build = mapping the
  supermatrix, one CRC per segment when verified) and iteration 3
  (``stored_steady_s``: four sparse mat-vecs, what every later iteration
  costs) must recompute **zero** quartets; ``supermatrix_mb`` is the
  size of the mapped matrices.

A second measurement (``eri_kernels_large``) runs benzene/6-31G through
the class-batched and stored paths only (the reference kernel is
impractical at that size); numerics are spot-checked on a sampled
quartet subset, each row against itself swept alone on a fresh engine
(a one-row plan, ``tests/reference_engine.quartet_block``).

Both measurements also count ``prim_quartets_swept``: the primitive
quartets one build on a warm engine runs through Boys and the Hermite
recursion (every ``r_tensor_batch`` argument, counted, not estimated).
The family sweep runs them once per exponent-family quartet, so on a
basis with sp shells the count is below the plan's per-row total
(``sum(nq * nprim)``), which ``--quick`` asserts on water/STO-3G: a
silent fall-back to per-class sweeps fails CI.

Both measurements also time the layers under the class-batched build
(``kernel_floor``): ``boys_ns_per_eval`` (per argument of one
``boys_array(4, .)`` sweep -- F_0..F_4 -- over 200 k arguments, 60 % of
them past the asymptotic switch like the water-cluster workloads), ``oneelec_s`` (S + H^core), ``schwarz_s``, and
the class-batched build on a warm engine (plan memoized: what every
direct-SCF iteration after the first pays) at 1 and 2 ``jk_threads``.
The water measurement also records ``cold_import_s``: the median of 7
``import repro`` walls, each in a fresh interpreter and timed by
``perf_counter`` inside it (what every ``repro`` command and service
worker pays before its first integral); it is measure-only.
The threaded pair is measure-only: the sweep is NumPy passes over one chunk at a time, so
two threads on a two-core host share memory bandwidth and trade the
GIL between passes -- 1.05-1.3x is the ceiling seen here (docs/
PERFORMANCE.md, "Kernel hot path"); it is recorded, never graded.

The ``eri_kernels`` and ``eri_kernels_large`` families of the BENCH
runner (``python -m benchmarks eri_kernels eri_kernels_large
[--quick]``); ``--quick`` runs the water measurement as a small STO-3G
smoke variant covering the class-batched and stored paths (used by CI).
The measure functions only drive public entry points, so running them
with ``PYTHONPATH`` on a parent checkout's ``src`` measures that commit.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import repro
from repro.bench.harness import format_table
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import benzene, water
from repro.integrals import pairdata
from repro.integrals.boys import boys_array
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.obs import PhaseProfiler, session
from repro.obs.profile import PHASE_JK
from repro.scf.fock import build_jk

# the seed engine lives beside the other differential oracles
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from reference_engine import (  # noqa: E402
    ReferenceMDEngine,
    class_rows,
    quartet_block,
)

#: minimum acceptable class-batched-over-seed speedup in the full benchmark
#: (the PR-7 issue targets >= 10x on water/6-31G)
CLASS_SPEEDUP_FLOOR = 10.0


#: report rows of :func:`kernel_floor`
FLOOR_ROWS = (
    ("class-batched, warm plan, 1 thread", "t_class_threads1_s"),
    ("class-batched, warm plan, 2 threads", "t_class_threads2_s"),
    ("S + Hcore", "oneelec_s"),
    ("Schwarz", "schwarz_s"),
    ("boys_array(4, .) [ns/argument]", "boys_ns_per_eval"),
)


def _timed_build(engine, density, tau=1e-11):
    t0 = time.perf_counter()
    j, k = build_jk(engine, density, tau)
    return time.perf_counter() - t0, j, k


def _stored_iter2(basis, density, store_dir):
    """Fill an ERIStore in iteration 1; time iterations 2 and 3 served
    from it.

    Returns ``(timings, j, k)``, J/K of the iteration-2 build and
    ``timings`` holding ``stored_iter2_s``, ``stored_steady_s``
    (iteration 3), ``jk_contract_s`` (the profiler's ``jk_contraction``
    wall of iteration 3: with zero recompute and nothing left to read,
    what a conventional-SCF iteration costs), ``store_iter2_recomputed``
    and ``supermatrix_mb``.
    """
    engine = MDEngine(basis, store=store_dir)
    build_jk(engine, density)  # iteration 1: fills + finalizes the store
    computed0 = engine.quartets_computed
    t_iter2, j, k = _timed_build(engine, density)
    prof = PhaseProfiler()
    with session(profiler=prof):
        t_steady, _, _ = _timed_build(engine, density)
    recomputed = engine.quartets_computed - computed0
    assert recomputed == 0, (
        f"stored mode recomputed {recomputed} quartets in iterations 2-3 "
        f"(expected 0)"
    )
    supermatrix = engine.integral_store.supermatrix
    return {
        "stored_iter2_s": round(t_iter2, 4),
        "stored_steady_s": round(t_steady, 5),
        "jk_contract_s": round(prof.stats[PHASE_JK].wall_s, 5),
        "store_iter2_recomputed": recomputed,
        "supermatrix_mb": round(supermatrix.nbytes / 1e6, 3),
    }, j, k


def prim_quartets_swept(engine, density) -> int:
    """Primitive quartets the Boys / Hermite pass sweeps in one build of
    ``engine``'s (warm) plan: every ``r_tensor_batch`` argument."""
    real, swept = pairdata.r_tensor_batch, [0]

    def counted(lmax, ps, *args):
        swept[0] += np.size(ps)
        return real(lmax, ps, *args)

    pairdata.r_tensor_batch = counted
    try:
        build_jk(engine, density)
    finally:
        pairdata.r_tensor_batch = real
    return swept[0]


def _best(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def kernel_floor(basis, density) -> dict:
    """The layers under a class-batched build, best of 3 each."""
    rng = np.random.default_rng(29)
    xs = np.where(
        rng.random(200_000) < 0.4,
        rng.uniform(0.0, 35.0, 200_000), rng.uniform(35.0, 4000.0, 200_000),
    )

    warm = MDEngine(basis)
    build_jk(warm, density)  # Schwarz, pair data and the class plan

    def threaded(threads):
        return _best(lambda: build_jk(warm, density, threads=threads))

    return {
        "boys_ns_per_eval": round(
            1e9 * _best(lambda: boys_array(4, xs)) / xs.size, 2),
        "oneelec_s": round(
            _best(lambda: (overlap(basis), core_hamiltonian(basis))), 4),
        "schwarz_s": round(_best(lambda: MDEngine(basis).schwarz()), 4),
        "t_class_threads1_s": round(threaded(1), 4),
        "t_class_threads2_s": round(threaded(2), 4),
    }


def cold_import_s(runs: int = 7) -> float:
    """Median wall of ``import repro`` in ``runs`` fresh interpreters, of
    the ``repro`` this process imported (``PYTHONPATH`` on a parent
    checkout's ``src`` measures that commit)."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    code = (
        "import time; t0 = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t0)"
    )
    walls = [
        float(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout)
        for _ in range(runs)
    ]
    return round(statistics.median(walls), 4)


def measure(quick: bool = False) -> tuple[dict, str]:
    """One full measurement: reference kernel / class kernel / stored."""
    basis_name = "sto-3g" if quick else "6-31g"
    mol = water()
    basis = BasisSet.build(mol, basis_name)
    rng = np.random.default_rng(17)
    d = rng.normal(size=(basis.nbf, basis.nbf))
    d = (d + d.T) / 2.0

    seed_engine = ReferenceMDEngine(basis)
    t_seed, j0, k0 = _timed_build(seed_engine, d)

    class_engine = MDEngine(basis)
    t_class, jc, kc = _timed_build(class_engine, d)
    class_diff = float(
        max(np.max(np.abs(j0 - jc)), np.max(np.abs(k0 - kc)))
    )
    quartets = class_engine.quartets_computed  # before the counted build
    swept = prim_quartets_swept(class_engine, d)
    if quick:
        per_row = sum(b.nq * b.nprim for b in class_engine.class_plan(1e-11).batches)
        assert swept < per_row, (
            f"{swept} primitive quartets swept, the plan's rows hold "
            f"{per_row}: the kernel fell back to per-class sweeps"
        )

    with tempfile.TemporaryDirectory(prefix="eri_store_") as store_dir:
        stored, js, ks = _stored_iter2(basis, d, store_dir)
    stored_diff = float(
        max(np.max(np.abs(j0 - js)), np.max(np.abs(k0 - ks)))
    )

    result = {
        "benchmark": "eri_kernels",
        "molecule": "H2O",
        "basis": basis_name,
        "nshells": basis.nshells,
        "nbf": basis.nbf,
        "quartets": quartets,
        "t_seed_s": round(t_seed, 4),
        "t_class_s": round(t_class, 4),
        "prim_quartets_swept": swept,
        "class_speedup": round(t_seed / t_class, 2),
        "class_max_abs_diff": class_diff,
        **stored,
        "stored_max_abs_diff": stored_diff,
        **kernel_floor(basis, d),
        "cold_import_s": cold_import_s(),
    }
    check_result(result, quick)
    return result, render_report(result)


def measure_large(quick: bool = False) -> tuple[dict, str]:
    """Benzene through the class-batched + stored paths (no seed timing).

    Numerics are verified on 64 randomly sampled surviving quartets
    against one-row plans on a fresh engine.  There is no smaller
    variant: ``quick`` only keeps the point out of the history.
    """
    basis_name = "6-31g"
    mol = benzene()
    basis = BasisSet.build(mol, basis_name)
    rng = np.random.default_rng(23)
    d = rng.normal(size=(basis.nbf, basis.nbf))
    d = (d + d.T) / 2.0

    engine = MDEngine(basis)
    t_class, _, _ = _timed_build(engine, d)
    quartets = engine.quartets_computed
    swept = prim_quartets_swept(engine, d)

    # spot-check: sampled rows computed through the class-batched kernel
    # itself (a family sweep over them) vs each row alone (a one-row plan)
    ref = MDEngine(basis)
    plan = engine.class_plan(1e-11)
    batch_of = np.concatenate([
        np.full(b.nq, i, dtype=np.int64) for i, b in enumerate(plan.batches)
    ])
    row_of = np.concatenate([
        np.arange(b.nq, dtype=np.int64) for b in plan.batches
    ])
    pick = rng.choice(len(batch_of), size=min(64, len(batch_of)),
                      replace=False)
    sample_diff = 0.0
    for bi in np.unique(batch_of[pick]):
        batch = plan.batches[bi]
        rows = row_of[pick[batch_of[pick] == bi]]
        blocks = class_rows(batch, rows)
        for blk, (m, n, p, q) in zip(blocks, batch.quartets[rows]):
            r = quartet_block(ref, int(m), int(n), int(p), int(q))
            sample_diff = max(sample_diff, float(np.max(np.abs(blk - r))))

    with tempfile.TemporaryDirectory(prefix="eri_store_") as store_dir:
        stored, _, _ = _stored_iter2(basis, d, store_dir)

    result = {
        "benchmark": "eri_kernels_large",
        "molecule": "C6H6",
        "basis": basis_name,
        "nshells": basis.nshells,
        "nbf": basis.nbf,
        "quartets": quartets,
        "t_class_s": round(t_class, 4),
        "prim_quartets_swept": swept,
        **stored,
        "sample_max_abs_diff": sample_diff,
        **kernel_floor(basis, d),
    }
    return result, render_large_report(result)


def render_report(result: dict) -> str:
    rows = [
        ["reference per-primitive", result["t_seed_s"], 1.0],
        ["class-batched", result["t_class_s"], result["class_speedup"]],
        ["stored iter 2 (map)", result["stored_iter2_s"],
         round(result["t_seed_s"] / max(result["stored_iter2_s"], 1e-12), 2)],
        [f"stored steady ({result['supermatrix_mb']} MB supermatrix)",
         result["stored_steady_s"],
         round(result["t_seed_s"] / max(result["stored_steady_s"], 1e-12), 2)],
        ["  of which J/K contraction", result["jk_contract_s"], ""],
        *([label, result[key], ""] for label, key in FLOOR_ROWS),
        ["cold `import repro` (median of 7)", result["cold_import_s"], ""],
    ]
    return format_table(
        ["kernel", "time [s]", "speedup"],
        rows,
        title=(
            f"ERI kernels: water/{result['basis']} J+K build "
            f"({result['quartets']} quartets, "
            f"{result['prim_quartets_swept']} primitive quartets swept, "
            f"class max |diff| {result['class_max_abs_diff']:.2e}, "
            f"stored iter-2 recomputed {result['store_iter2_recomputed']})"
        ),
    )


def render_large_report(result: dict) -> str:
    rows = [
        ["class-batched", result["t_class_s"]],
        ["stored iter 2 (map)", result["stored_iter2_s"]],
        [f"stored steady ({result['supermatrix_mb']} MB supermatrix)",
         result["stored_steady_s"]],
        ["  of which J/K contraction", result["jk_contract_s"]],
        *([label, result[key]] for label, key in FLOOR_ROWS),
    ]
    return format_table(
        ["kernel", "time [s]"],
        rows,
        title=(
            f"ERI kernels (large): benzene/{result['basis']} J+K build "
            f"({result['quartets']} quartets, "
            f"{result['prim_quartets_swept']} primitive quartets swept, "
            f"sampled max |diff| {result['sample_max_abs_diff']:.2e}, "
            f"stored iter-2 recomputed {result['store_iter2_recomputed']})"
        ),
    )


def check_result(result: dict, quick: bool) -> None:
    """The gates that are not family specs: store-served numerics and
    the class kernel's speedup over the seed."""
    assert result["stored_max_abs_diff"] < 1e-10, (
        f"store-served blocks drifted: {result['stored_max_abs_diff']:.3e}"
    )
    # CI only: the same script also measures checkouts that predate the
    # supermatrix, whose third build is the second over again
    if quick:
        assert result["stored_steady_s"] < result["stored_iter2_s"], (
            f"steady served build ({result['stored_steady_s']} s) is not "
            f"below the mapping one ({result['stored_iter2_s']} s)"
        )
    class_floor = 1.0 if quick else CLASS_SPEEDUP_FLOOR
    assert result["class_speedup"] >= class_floor, (
        f"class-batched kernel below the speedup gate: "
        f"{result['class_speedup']:.2f}x < {class_floor}x over seed"
    )
