"""Command-line interface: ``python -m repro <command>``.

Commands
--------
scf MOLECULE [--basis NAME]     run RHF on a built-in molecule
                                (``--guard`` arms the convergence guard)
table{2..9} / fig1 / fig2       regenerate one evaluation artifact
model                           Sec III-G performance-model analysis
ablation {reorder,steal,grain}  design-choice ablations
report MOLECULE [--out PATH]    self-contained HTML run report; pass a
                                run *directory* instead of a molecule to
                                render a persisted run after the fact
analyze MOLECULE [--cores N]    critical-path analysis of a simulated
                                GTFock build: exact per-rank time
                                decomposition, blame table, what-if
                                projections (``--check`` gates the
                                invariants -- the CI gate)
chaos MOLECULE [--seed N]       fault-injected build, verified vs fault-free
                                (``--family scf`` = NaN/Inf ERI corruption;
                                ``--family service`` = seeded SIGKILLs of
                                real queue workers, jobs must still finish;
                                ``--family sdc`` = silent bit flips into
                                checkpoints, stored ERI blocks, accumulate
                                payloads, and in-flight matrices -- every
                                one must be detected and repaired)
verify DIR [--json PATH]        offline integrity audit: re-checksum every
                                store / checkpoint / run ledger under DIR;
                                exit 1 if anything fails verification
serve [--workers N] [--drain]   run the SCF-as-a-service worker pool over
                                a durable job queue (``--queue DIR``)
submit MOLECULE [--basis NAME]  enqueue an SCF job (returns its job id)
status [--json PATH]            job table + per-state counts of the queue
cancel JOB_ID                   cancel a queued/leased/running job
drain [--timeout S]             wait until the queue is empty; exit 0 only
                                if every job ended ``done``
torture [--quick]               SCF torture suite under the convergence guard
perf profile [MOLECULE]         profiled RHF: phase table + cProfile hotspots
perf check [--quick]            grade the BENCH_*.json perf trajectories
                                (exits nonzero on FAIL -- the CI gate)
perf history                    print the tracked-metric trajectories
info                            provenance: versions, git SHA, CPU count
list                            list built-in molecules and bases

Every command accepts ``--trace PATH`` (Chrome trace-event JSON --
open it at https://ui.perfetto.dev -- or raw span records with a
``.jsonl`` extension), ``--metrics PATH`` (JSON, or Prometheus text
exposition with a ``.prom`` extension), ``--profile`` (phase wall/CPU
attribution, table printed on exit), and ``--run-dir DIR`` (durable run
ledger: manifest.json + metrics.jsonl + summary.json, renderable later
with ``repro report DIR``).  See ``docs/OBSERVABILITY.md``.

Set ``REPRO_FULL=1`` to run evaluation commands at the paper's exact
molecule sizes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from repro.bench.experiments import ARTIFACTS
from repro.chem.basis.basisset import BASIS_REGISTRY, BasisSet
from repro.chem.builders import (
    DEMO_MOLECULES,
    PAPER_MOLECULES,
    SCALED_MOLECULES,
    molecule_by_name,
    paper_molecule,
)
from repro.chem.molecule import UnknownNameError
from repro.runtime.faults import EmptyPlanError


def _run_scf(args: argparse.Namespace) -> int:
    from repro.scf import RHF, GuardConfig

    mol = molecule_by_name(args.molecule)
    guard = None
    if args.guard:
        guard = GuardConfig(
            patience=args.guard_patience,
            window=args.guard_window,
            max_nonfinite=args.guard_max_nonfinite,
        )
    print(f"RHF/{args.basis} on {mol.formula} ({mol.nelectrons} electrons)")
    rhf = RHF(
        mol,
        basis_name=args.basis,
        use_diis=not args.no_diis,
        max_iter=args.max_iter,
        guard=guard,
        integral_store=args.store,
        jk_threads=args.jk_threads,
        integrity=args.integrity,
    )
    result = rhf.run()
    print(f"energy      = {result.energy:.8f} hartree")
    print(f"converged   = {result.converged} ({result.iterations} iterations)")
    store = rhf.engine.integral_store
    if store is not None:
        st = store.stats()
        print(
            f"store       = {st['nblocks']} blocks, "
            f"{st['nbytes'] / 2**20:.2f} MiB at {st['path']} "
            f"(served {rhf.engine.quartets_served_from_store}, "
            f"computed {rhf.engine.quartets_computed})"
        )
    if result.orbital_energies is not None:
        from repro.scf.properties import orbital_summary

        summary = orbital_summary(result.orbital_energies, mol.nelectrons // 2)
        print(f"HOMO        = {summary.homo:.6f}")
        if summary.lumo is not None:
            print(f"LUMO        = {summary.lumo:.6f}  (gap {summary.gap:.6f})")
    if result.guard_summary is not None:
        g = result.guard_summary
        print(
            f"guard       = {g['events']} events, rung {g['level']}, "
            f"final state {g['final_state']}"
        )
        for line in [ev.describe() for ev in result.guard_events]:
            print(f"  {line}")
    if result.integrity_summary is not None:
        s = result.integrity_summary
        print(
            f"integrity   = {s['checks_total']} checks, "
            f"{s['detections_total']} corruptions detected, "
            f"{s['recoveries_total']} recoveries"
        )
    return 0 if result.converged else 1


def _run_torture(args: argparse.Namespace) -> int:
    from repro.obs.report import render_torture_report
    from repro.scf.torture import run_torture

    tres = run_torture(quick=args.quick, vanilla=not args.no_vanilla)
    notes = ()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_torture_report(tres.to_json()))
        notes = (f"torture report written to {args.report}",)
    return _finish_chaos(args, tres, f"torture run: {len(tres.outcomes)} cases", notes)


def _run_experiment(args: argparse.Namespace) -> int:
    print(ARTIFACTS[args.command]().text)
    return 0


def _run_ablation(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.fock.ablation import (
        granularity_ablation,
        reordering_ablation,
        stealing_ablation,
    )
    from repro.fock.screening_map import ScreeningMap
    from repro.integrals.schwarz import schwarz_model

    mol = paper_molecule(args.molecule)
    basis = BasisSet.build(mol, "vdz-sim")
    if args.kind == "reorder":
        rng = np.random.default_rng(0)
        scrambled = basis.permuted(rng.permutation(basis.nshells))
        rows = reordering_ablation(scrambled)
    else:
        from repro.fock.reorder import reorder_basis

        rb = reorder_basis(basis)
        screen = ScreeningMap(rb, schwarz_model(rb), 1e-10)
        if args.kind == "steal":
            rows = stealing_ablation(rb, screen)
        else:
            rows = granularity_ablation(rb, screen)
    for row in rows:
        print(row)
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.obs.report import run_report, write_report

    if os.path.isdir(args.molecule) or os.sep in args.molecule:
        # a run directory, not a molecule: render the persisted ledger
        from repro.obs.manifest import LedgerError, load_run
        from repro.obs.report import render_ledger_report

        try:
            record = load_run(args.molecule)
        except LedgerError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_ledger_report(record))
        print(f"report for run {record.title} written to {args.out}")
        return 0

    report, _result = run_report(
        molecule=args.molecule,
        basis_name=args.basis,
        nproc=args.nproc,
        with_trace=not args.no_embedded_trace,
        scf_guard=args.scf_guard,
    )
    write_report(args.out, report)
    print(report.validation.text())
    print(f"report written to {args.out}")
    if args.check and not report.validation.passed:
        print(
            "model validation FAILED (a deviation exceeded its fail "
            "threshold; see docs/OBSERVABILITY.md)",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.fock.reorder import reorder_basis
    from repro.fock.screening_map import ScreeningMap
    from repro.fock.simulate import SimCapture, simulate_gtfock
    from repro.integrals import schwarz_model
    from repro.obs import Tracer, get_ledger, get_tracer
    from repro.obs.critpath import analyze

    mol = molecule_by_name(args.molecule)
    basis = reorder_basis(BasisSet.build(mol, args.basis))
    screen = ScreeningMap(basis, schwarz_model(basis), args.tau)
    # path extraction needs the run traced: use the ambient tracer when
    # --trace armed one, otherwise a local throwaway
    tracer = get_tracer()
    if not tracer.enabled:
        tracer = Tracer("analyze")
    capture = SimCapture()
    simulate_gtfock(
        basis, screen, args.cores, tracer=tracer, capture=capture
    )
    analysis = analyze(
        capture,
        resim=not args.no_resim,
        network_scale=args.network_scale,
    )
    print(analysis.text())
    analysis.export_metrics()
    get_ledger().add_summary(critpath=analysis.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(analysis.to_json(), fh, indent=2)
        print(f"analysis JSON written to {args.json}", file=sys.stderr)
    if args.report:
        from repro.obs.report import render_critpath_report

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_critpath_report(analysis))
        print(
            f"critical-path report written to {args.report}", file=sys.stderr
        )
    if args.check:
        try:
            analysis.check()
        except AssertionError as exc:
            print(f"analyze check FAILED: {exc}", file=sys.stderr)
            return 1
        print("analyze check: decomposition exact, what-ifs within tolerance")
    return 0


def _finish_chaos(args: argparse.Namespace, cres, header: str, notes=()) -> int:
    """The tail every gate shares (the four ``repro chaos`` families and
    ``repro torture``): summary, ``--json``, and the failure line + exit
    code of a broken invariant."""
    import json

    print(header)
    for line in cres.summary_lines():
        print(f"  {line}")
    for note in notes:
        print(note)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(cres.to_json(), fh, indent=2, sort_keys=True)
        print(f"{cres.gate} summary written to {args.json}")
    if not cres.passed:
        print(cres.failure_line(), file=sys.stderr)
        return 1
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    import json

    from repro.obs.verify import verify_tree

    report = verify_tree(args.directory)
    for line in report.summary_lines():
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"verify report written to {args.json}")
    return 0 if report.clean else 1


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    result = serve(
        args.queue,
        workers=args.workers,
        poll_s=args.poll,
        drain=args.drain,
        grace_s=args.grace,
        wall_limit_s=args.wall_limit,
        verbose=True,
    )
    for line in result.summary_lines():
        print(line)
    if args.drain and not result.drained:
        print("serve: queue not drained (wall limit hit?)", file=sys.stderr)
        return 1
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    from repro.service import JobStore

    # a name no worker could resolve is rejected here, not enqueued
    BasisSet.build(molecule_by_name(args.molecule), args.basis)
    spec: dict = {"kind": "scf", "molecule": args.molecule, "basis": args.basis}
    if args.jk_threads is not None:
        spec["jk_threads"] = args.jk_threads
    if args.store:
        spec["store_dir"] = args.store
    if args.guard:
        spec["guard"] = True
    if args.integrity:
        spec["integrity"] = True
    if args.max_iter is not None:
        spec["max_iter"] = args.max_iter
    store = JobStore(args.queue)
    job = store.submit(
        spec,
        priority=args.priority,
        max_attempts=args.max_attempts,
        timeout_s=args.timeout,
        lease_s=args.lease,
    )
    print(f"submitted job {job.id}: {args.molecule}/{args.basis} "
          f"(priority {job.priority}, dir {job.job_dir})")
    return 0


def _run_status(args: argparse.Namespace) -> int:
    import json

    from repro.obs import get_metrics
    from repro.obs.metrics import export_service
    from repro.service import JobStore

    store = JobStore(args.queue)
    jobs = store.jobs()
    if jobs:
        print(f"{'id':>5} {'state':<12} {'att':>3} {'job':<22} "
              f"{'owner':<8} result/error")
        for job in jobs:
            what = job.spec.get("molecule", job.spec.get("kind", "?"))
            basis = job.spec.get("basis", "")
            label = f"{what}/{basis}" if basis else str(what)
            tail = ""
            if job.result is not None and "energy" in job.result:
                tail = f"E = {job.result['energy']:.10f}"
            elif job.result is not None:
                tail = "ok"
            elif job.error:
                tail = job.error.strip().splitlines()[-1][:50]
            print(f"{job.id:>5} {job.state:<12} {job.attempts:>3} "
                  f"{label:<22} {job.lease_owner or '-':<8} {tail}")
    counts = store.counts()
    print("counts:", ", ".join(f"{k} {v}" for k, v in counts.items() if v)
          or "empty queue")
    export_service(store.stats(), registry=get_metrics())
    if args.json:
        payload = {
            "counts": counts,
            "events": store.event_counts(),
            "jobs": [
                {
                    "id": j.id, "state": j.state, "attempts": j.attempts,
                    "spec": j.spec, "result": j.result, "error": j.error,
                    "job_dir": j.job_dir,
                }
                for j in jobs
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"status written to {args.json}")
    return 0


def _run_cancel(args: argparse.Namespace) -> int:
    from repro.service import JobStore

    store = JobStore(args.queue)
    try:
        job = store.get(args.job_id)
    except KeyError as exc:
        print(f"repro cancel: {exc.args[0]}", file=sys.stderr)
        return 2
    if store.cancel(args.job_id):
        print(f"cancelled job {args.job_id}")
        return 0
    print(
        f"repro cancel: job {args.job_id} already terminal ({job.state})",
        file=sys.stderr,
    )
    return 1


def _run_drain(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import JobStore

    store = JobStore(args.queue)
    deadline = _time.time() + args.timeout
    while not store.drained():
        if _time.time() > deadline:
            counts = store.counts()
            print(
                "drain: timed out with jobs still in flight: "
                + ", ".join(f"{k} {v}" for k, v in counts.items() if v),
                file=sys.stderr,
            )
            return 2
        _time.sleep(args.poll)
    counts = store.counts()
    print("drained:", ", ".join(f"{k} {v}" for k, v in counts.items() if v)
          or "empty queue")
    bad = counts["failed"] + counts["quarantined"]
    if bad:
        print(
            f"drain: {bad} job(s) ended failed/quarantined "
            "(see 'repro status')",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.fock.chaos import run_chaos, run_scf_chaos, run_sdc_chaos
    from repro.obs import get_metrics, get_tracer
    from repro.obs.metrics import export_faults
    from repro.obs.report import chaos_report, write_report
    from repro.obs.trace import Tracer
    from repro.service import run_service_chaos

    # runtime only: capture the faulted run for the report's embedded
    # trace; reuse an installed (--trace) tracer so both outputs describe
    # the same run
    tracer = get_tracer() if get_tracer().enabled else None
    if tracer is None and args.report:
        tracer = Tracer("repro-chaos")
    queue = args.queue
    if args.family == "service" and queue is None:
        queue = tempfile.mkdtemp(prefix="repro-service-chaos-")
    fock = dict(
        molecule=args.molecule, basis_name=args.basis, seed=args.seed,
        tolerance=args.tolerance,
    )
    families = {
        "runtime": lambda: run_chaos(
            nproc=args.nproc, ndeaths=args.deaths, nstragglers=args.stragglers,
            op_fail_rate=args.op_fail_rate, delay_rate=args.delay_rate,
            tracer=tracer, **fock,
        ),
        "scf": lambda: run_scf_chaos(
            quartet_nan_rate=args.quartet_nan_rate, **fock
        ),
        "sdc": lambda: run_sdc_chaos(workdir=args.workdir, **fock),
        "service": lambda: run_service_chaos(
            queue, njobs=args.jobs, workers=args.workers, kills=args.kills,
            seed=args.seed, molecule=args.molecule, basis=args.service_basis,
            tolerance=args.tolerance, lease_s=args.lease,
        ),
    }
    cres = families[args.family]()
    notes = []
    if args.family == "service":
        subject = f"{cres.njobs} jobs on {cres.workers} workers, queue {queue}"
    else:
        subject = f"{cres.molecule}/{cres.basis_name}"
    if args.family == "runtime":
        subject += f" on {cres.nproc} simulated processes"
        if cres.faulty.faults is not None:
            export_faults(
                cres.faulty.faults, cres.faulty.outcome, registry=get_metrics()
            )
        if args.report:
            write_report(args.report, chaos_report(cres, tracer))
            notes.append(f"chaos report written to {args.report}")
    if args.family == "sdc" and args.workdir:
        notes.append(
            f"  corrupted work tree kept at {args.workdir} "
            "(audit it with 'repro verify')"
        )
    return _finish_chaos(args, cres, f"{cres.gate} run: {subject}", notes)


def _run_info(args: argparse.Namespace) -> int:
    from repro.obs.manifest import provenance

    pv = provenance()
    width = max(len(k) for k in pv)
    for key in (
        "package", "version", "git_sha", "python", "numpy", "scipy",
        "platform", "cpu_count",
    ):
        print(f"{key:<{width}} = {pv[key]}")
    return 0


def _run_perf_profile(args: argparse.Namespace) -> int:
    from repro.obs import PhaseProfiler, get_ledger, session
    from repro.obs.profile import hotspot_text, profile_hotspots
    from repro.scf import RHF

    mol = molecule_by_name(args.molecule)
    print(
        f"profiled RHF/{args.basis} on {mol.formula} "
        f"(cProfile top {args.top}"
        + (", tracemalloc phase attribution" if args.alloc else "")
        + ")"
    )
    profiler = PhaseProfiler(alloc=args.alloc)
    with session(profiler=profiler):
        result, hotspots = profile_hotspots(
            lambda: RHF(
                mol, basis_name=args.basis, max_iter=args.max_iter
            ).run(),
            top=args.top,
        )
        get_ledger().attach_profile(hotspots=hotspots)
    print(f"energy      = {result.energy:.8f} hartree")
    print(f"converged   = {result.converged} ({result.iterations} iterations)")
    print()
    print(profiler.table())
    print()
    print(hotspot_text(hotspots))
    return 0 if result.converged else 1


def _run_perf_check(args: argparse.Namespace) -> int:
    import json

    from repro.bench.record import HISTORIES
    from repro.obs.regress import grade

    # the table's files are cwd-relative: run from the repo root, or
    # point --history elsewhere
    histories = args.history or list(HISTORIES)
    report = grade(
        histories, quick=args.quick, window=args.last, runs=args.runs
    )
    if not report.findings:
        # a gate that graded nothing has not passed
        print(
            "perf check FAILED: nothing to grade -- no BENCH history "
            "entries found in: "
            + ", ".join(os.path.abspath(h) for h in histories),
            file=sys.stderr,
        )
        return 1
    print(report.text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"check summary written to {args.json}")
    if not report.passed:
        print(
            "perf check FAILED: a tracked metric regressed beyond its "
            "fail threshold (see docs/PERFORMANCE.md)",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_perf_history(args: argparse.Namespace) -> int:
    from repro.bench.record import HISTORIES
    from repro.obs.regress import history_text

    print(history_text(args.history or list(HISTORIES), last=args.points))
    return 0


def _run_list(args: argparse.Namespace) -> int:
    print("paper molecules :", ", ".join(sorted(PAPER_MOLECULES)))
    print("scaled stand-ins:", ", ".join(sorted(SCALED_MOLECULES)))
    print("demo molecules  :", ", ".join(DEMO_MOLECULES))
    print("basis sets      :", ", ".join(sorted(BASIS_REGISTRY)))
    return 0


def _threshold(text: str) -> float:
    """``--tau``: a finite screening threshold > 0."""
    tau = float(text)
    if not (math.isfinite(tau) and tau > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite threshold > 0, got {text!r}"
        )
    return tau


def _positive_int(text: str) -> int:
    """``--max-iter`` / ``--jk-threads``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _obs_flags() -> argparse.ArgumentParser:
    """Shared observability flags for every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a trace: Chrome trace-event JSON (Perfetto-loadable),"
        " or raw span records if PATH ends in .jsonl",
    )
    parent.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write collected metrics: JSON, or Prometheus text"
        " exposition if PATH ends in .prom",
    )
    parent.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall/CPU time to named pipeline phases; the phase"
        " table is printed on exit (and lands in the run ledger)",
    )
    parent.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="write a durable run directory (manifest.json, metrics.jsonl,"
        " summary.json); render it later with 'repro report DIR'",
    )
    return parent


class _VersionAction(argparse.Action):
    """``--version``: the provenance block's one-line form (lazy imports)."""

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.obs.manifest import provenance

        pv = provenance()
        print(
            f"repro {pv['version']} (git {pv['git_sha'][:12]}, "
            f"python {pv['python']}, numpy {pv['numpy']}, "
            f"scipy {pv['scipy']})"
        )
        parser.exit(0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0,
        help="print version, git SHA, and library versions, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs_flags = _obs_flags()

    p_scf = sub.add_parser(
        "scf", help="run RHF on a built-in molecule", parents=[obs_flags]
    )
    p_scf.set_defaults(handler=_run_scf)
    p_scf.add_argument("molecule")
    p_scf.add_argument("--basis", default="sto-3g")
    p_scf.add_argument("--max-iter", type=_positive_int, default=100)
    p_scf.add_argument(
        "--no-diis", action="store_true", help="disable DIIS acceleration"
    )
    p_scf.add_argument(
        "--store", metavar="DIR", default=None,
        help="directory for the memory-mapped stored-integral layer "
        "(conventional SCF: iterations after the first recompute zero "
        "ERIs; see docs/PERFORMANCE.md)",
    )
    p_scf.add_argument(
        "--jk-threads", type=_positive_int, default=None, metavar="N",
        help="worker threads for the class-batched J/K contraction "
        "(default: REPRO_JK_THREADS or serial)",
    )
    p_scf.add_argument(
        "--guard", action="store_true",
        help="arm the convergence guard (watchdog + remediation ladder; "
        "see docs/ROBUSTNESS.md)",
    )
    p_scf.add_argument(
        "--guard-patience", type=int, default=2, metavar="N",
        help="bad classifications before escalating one ladder rung",
    )
    p_scf.add_argument(
        "--guard-window", type=int, default=6, metavar="N",
        help="history length the classifier looks back over",
    )
    p_scf.add_argument(
        "--guard-max-nonfinite", type=int, default=3, metavar="N",
        help="non-finite events tolerated before aborting with GuardError",
    )
    p_scf.add_argument(
        "--integrity", action="store_true",
        help="arm the data-integrity layer: ABFT checks on F/D each "
        "iteration, CRC-verified stored-integral reads, verified "
        "recovery (see docs/ROBUSTNESS.md)",
    )

    for name in ARTIFACTS:
        sub.add_parser(
            name, help=f"regenerate {name}", parents=[obs_flags]
        ).set_defaults(handler=_run_experiment)

    p_abl = sub.add_parser(
        "ablation", help="design-choice ablations", parents=[obs_flags]
    )
    p_abl.set_defaults(handler=_run_ablation)
    p_abl.add_argument("kind", choices=["reorder", "steal", "grain"])
    p_abl.add_argument("--molecule", default="C24H12")

    p_rep = sub.add_parser(
        "report",
        help="run a numeric Fock build and write an HTML run report",
        parents=[obs_flags],
    )
    p_rep.set_defaults(handler=_run_report)
    p_rep.add_argument("molecule", nargs="?", default="water")
    p_rep.add_argument("--basis", default="6-31g")
    p_rep.add_argument("--nproc", type=int, default=4)
    p_rep.add_argument("--out", default="run-report.html", metavar="PATH")
    p_rep.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if any model-vs-measured deviation FAILs",
    )
    p_rep.add_argument(
        "--no-embedded-trace",
        action="store_true",
        help="skip embedding the Perfetto trace in the report",
    )
    p_rep.add_argument(
        "--scf-guard",
        action="store_true",
        help="run a guarded RHF of the same system first and include "
        "its convergence-guard section in the report",
    )

    p_an = sub.add_parser(
        "analyze",
        help="critical-path analysis + what-if projections of a simulated "
        "GTFock build (see docs/OBSERVABILITY.md)",
        parents=[obs_flags],
    )
    p_an.set_defaults(handler=_run_analyze)
    p_an.add_argument("molecule", nargs="?", default="water")
    p_an.add_argument("--basis", default="sto-3g")
    p_an.add_argument(
        "--cores", type=int, default=48,
        help="total simulated cores (ranks = cores // cores_per_node)",
    )
    p_an.add_argument(
        "--tau", type=_threshold, default=1e-10, help="screening threshold"
    )
    p_an.add_argument(
        "--network-scale", type=float, default=2.0, metavar="F",
        help="slowdown factor of the network what-if (latency xF, "
        "bandwidth /F)",
    )
    p_an.add_argument(
        "--no-resim", action="store_true",
        help="skip the what-if re-simulation cross-checks (faster; "
        "verdicts stay PROJECTED)",
    )
    p_an.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full analysis as JSON",
    )
    p_an.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the critical-path HTML report",
    )
    p_an.add_argument(
        "--check", action="store_true",
        help="exit nonzero if the exact-decomposition invariant drifts "
        "or any cross-checked what-if FAILs",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="run a fault-injected numeric build and verify it against "
        "the fault-free run (see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    p_chaos.set_defaults(handler=_run_chaos)
    p_chaos.add_argument("molecule", nargs="?", default="water")
    p_chaos.add_argument("--basis", default="sto-3g")
    p_chaos.add_argument("--nproc", type=int, default=4)
    p_chaos.add_argument(
        "--family", choices=["runtime", "scf", "service", "sdc"],
        default="runtime",
        help="runtime = rank deaths / lossy ops on the simulated machine; "
        "scf = seeded NaN/Inf corruption of batched ERI blocks, rescued "
        "by the convergence guard's sentinel; service = seeded SIGKILLs "
        "of real queue workers -- every job must still reach done with "
        "its fault-free energy; sdc = silent bit flips into checkpoint "
        "files, stored ERI blocks, accumulate payloads, and in-flight "
        "F/D matrices -- every one must be detected and repaired, and "
        "the run must still land on the clean energy",
    )
    p_chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="(sdc family) work tree for stores/checkpoints; kept after "
        "the run so 'repro verify' can audit the planted corruption "
        "(default: a tempdir, removed on exit)",
    )
    p_chaos.add_argument(
        "--jobs", type=int, default=8,
        help="(service family) jobs to submit",
    )
    p_chaos.add_argument(
        "--workers", type=int, default=3,
        help="(service family) worker processes in the pool",
    )
    p_chaos.add_argument(
        "--kills", type=int, default=2,
        help="(service family) seeded worker SIGKILLs to inject",
    )
    p_chaos.add_argument(
        "--queue", default=None, metavar="DIR",
        help="(service family) queue directory (default: a fresh tempdir)",
    )
    p_chaos.add_argument(
        "--lease", type=float, default=2.0, metavar="S",
        help="(service family) job lease duration in seconds",
    )
    p_chaos.add_argument(
        "--service-basis", default="6-31g", metavar="NAME",
        help="(service family) basis for the submitted jobs (6-31g "
        "default: jobs must outlive the kill window to be interesting)",
    )
    p_chaos.add_argument(
        "--quartet-nan-rate", type=float, default=0.05,
        help="(scf family) per-quartet corruption probability",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="seed of the random fault plan (same seed -> same run)",
    )
    p_chaos.add_argument(
        "--deaths", type=int, default=1, help="ranks to kill mid-run"
    )
    p_chaos.add_argument(
        "--stragglers", type=int, default=1, help="slowed-down ranks"
    )
    p_chaos.add_argument("--op-fail-rate", type=float, default=0.05)
    p_chaos.add_argument("--delay-rate", type=float, default=0.05)
    p_chaos.add_argument(
        "--tolerance", type=float, default=1e-12,
        help="max allowed |dF| vs the fault-free build",
    )
    p_chaos.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the chaos HTML run report",
    )
    p_chaos.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write a JSON summary (errors + recovery overhead)",
    )

    # -- SCF-as-a-service (docs/ROBUSTNESS.md "Service resilience") ------
    def _queue_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--queue", default="repro-queue", metavar="DIR",
            help="queue directory (holds queue.db + per-job artifact dirs)",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the durable-queue worker pool (leases, retries, "
        "timeouts; see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    p_serve.set_defaults(handler=_run_serve)
    _queue_flag(p_serve)
    p_serve.add_argument(
        "--workers", type=int, default=3, metavar="N",
        help="worker processes in the pool",
    )
    p_serve.add_argument(
        "--drain", action="store_true",
        help="exit once every job is terminal (instead of serving forever)",
    )
    p_serve.add_argument(
        "--poll", type=float, default=0.25, metavar="S",
        help="supervisor tick / worker idle-claim interval",
    )
    p_serve.add_argument(
        "--grace", type=float, default=2.0, metavar="S",
        help="SIGTERM-to-SIGKILL grace window for timed-out workers",
    )
    p_serve.add_argument(
        "--wall-limit", type=float, default=None, metavar="S",
        help="hard bound on the serve loop (CI safety net)",
    )

    p_sub = sub.add_parser(
        "submit", help="enqueue an SCF job on the durable queue",
        parents=[obs_flags],
    )
    p_sub.set_defaults(handler=_run_submit)
    p_sub.add_argument("molecule")
    p_sub.add_argument("--basis", default="sto-3g")
    _queue_flag(p_sub)
    p_sub.add_argument("--priority", type=int, default=0)
    p_sub.add_argument(
        "--max-attempts", type=int, default=5, metavar="N",
        help="attempts before the job is quarantined",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="per-job wall-clock budget (exceeding it kills the worker)",
    )
    p_sub.add_argument(
        "--lease", type=float, default=30.0, metavar="S",
        help="lease duration; renewed by heartbeat every SCF iteration",
    )
    p_sub.add_argument("--max-iter", type=_positive_int, default=None)
    p_sub.add_argument(
        "--jk-threads", type=_positive_int, default=None, metavar="N",
        help="threaded J/K contraction width (dropped to 1 on "
        "MemoryError retries)",
    )
    p_sub.add_argument(
        "--store", default=None, metavar="DIR",
        help="shared stored-integral directory (cross-process file "
        "locking keeps concurrent fills safe; dropped for direct SCF "
        "on MemoryError retries)",
    )
    p_sub.add_argument(
        "--guard", action="store_true", help="arm the convergence guard"
    )
    p_sub.add_argument(
        "--integrity", action="store_true",
        help="arm the data-integrity layer (unrecoverable corruption "
        "quarantines the job instead of retrying it)",
    )

    p_stat = sub.add_parser(
        "status", help="job table + per-state counts of the durable queue",
        parents=[obs_flags],
    )
    p_stat.set_defaults(handler=_run_status)
    _queue_flag(p_stat)
    p_stat.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full job table as JSON",
    )

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued/leased/running job",
        parents=[obs_flags],
    )
    p_cancel.set_defaults(handler=_run_cancel)
    p_cancel.add_argument("job_id", type=int)
    _queue_flag(p_cancel)

    p_drain = sub.add_parser(
        "drain",
        help="wait until the queue is empty; exit 0 only if every job "
        "ended done",
        parents=[obs_flags],
    )
    p_drain.set_defaults(handler=_run_drain)
    _queue_flag(p_drain)
    p_drain.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="give up (exit 2) after this long",
    )
    p_drain.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="poll interval",
    )

    p_verify = sub.add_parser(
        "verify",
        help="offline integrity audit of every store / checkpoint / run "
        "ledger under a directory (see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    p_verify.set_defaults(handler=_run_verify)
    p_verify.add_argument("directory", metavar="DIR")
    p_verify.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the audit report as JSON",
    )

    p_tort = sub.add_parser(
        "torture",
        help="run the SCF torture suite under the convergence guard "
        "(see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    p_tort.set_defaults(handler=_run_torture)
    p_tort.add_argument(
        "--quick", action="store_true", help="CI subset of the suite"
    )
    p_tort.add_argument(
        "--no-vanilla", action="store_true",
        help="skip the guard-off contrast runs",
    )
    p_tort.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the torture HTML report",
    )
    p_tort.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the outcome records as JSON",
    )

    p_perf = sub.add_parser(
        "perf",
        help="phase/hotspot profiling and the perf-regression observatory "
        "(see docs/PERFORMANCE.md)",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    pp_prof = perf_sub.add_parser(
        "profile",
        help="run a profiled RHF: phase wall/CPU table + cProfile hotspots",
        parents=[obs_flags],
    )
    pp_prof.set_defaults(handler=_run_perf_profile)
    pp_prof.add_argument("molecule", nargs="?", default="water")
    pp_prof.add_argument("--basis", default="6-31g")
    pp_prof.add_argument("--max-iter", type=_positive_int, default=100)
    pp_prof.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="hotspot rows to keep (by cumulative time)",
    )
    pp_prof.add_argument(
        "--alloc", action="store_true",
        help="attribute tracemalloc peak allocations to phases (slow)",
    )
    pp_check = perf_sub.add_parser(
        "check",
        help="grade the BENCH_*.json trajectories; exit 1 on FAIL",
        parents=[obs_flags],
    )
    pp_check.set_defaults(handler=_run_perf_check)
    pp_check.add_argument(
        "--history", action="append", metavar="PATH",
        help="BENCH history file (repeatable; default: every history of "
        "the family table, in the current directory)",
    )
    pp_check.add_argument(
        "--quick", action="store_true",
        help="grade only machine-independent metrics (ratios, error "
        "bounds) -- for CI hardware that never wrote the history",
    )
    pp_check.add_argument(
        "--last", type=int, default=8, metavar="K",
        help="baseline window: median over the last K prior points",
    )
    pp_check.add_argument(
        "--runs", default=None, metavar="DIR",
        help="also grade completed run-ledger directories under DIR",
    )
    pp_check.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the findings as JSON",
    )
    pp_hist = perf_sub.add_parser(
        "history",
        help="print the tracked-metric trajectories",
        parents=[obs_flags],
    )
    pp_hist.set_defaults(handler=_run_perf_history)
    pp_hist.add_argument(
        "--history", action="append", metavar="PATH",
        help="BENCH history file (repeatable)",
    )
    pp_hist.add_argument(
        "--points", type=int, default=6, metavar="N",
        help="trajectory points to show per metric",
    )

    sub.add_parser(
        "info",
        help="print the provenance block (versions, git SHA, CPU count)",
        parents=[obs_flags],
    ).set_defaults(handler=_run_info)
    sub.add_parser(
        "list", help="list built-in molecules and bases", parents=[obs_flags]
    ).set_defaults(handler=_run_list)

    args = parser.parse_args(argv)

    # fail fast on unwritable output paths -- a long run must not end
    # in a traceback with its trace/metrics lost
    out_path = getattr(args, "out", None)
    for path in (
        args.trace,
        args.metrics,
        out_path,
        getattr(args, "report", None),
        getattr(args, "json", None),
    ):
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                parser.error(f"cannot write {path}: directory {parent!r} does not exist")
            if not os.access(parent, os.W_OK):
                parser.error(f"cannot write {path}: directory {parent!r} is not writable")

    from repro import obs

    profiler = obs.PhaseProfiler() if args.profile else None
    ledger = None
    if args.run_dir:
        config = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "handler", "trace", "metrics", "run_dir")
            and v is not None
        }
        ledger = obs.RunLedger(
            args.run_dir,
            command=args.command,
            config=config,
            molecule=getattr(args, "molecule", None),
            basis=getattr(args, "basis", None),
            seed=getattr(args, "seed", None),
            argv=list(argv) if argv is not None else None,
        )
    # an escaping exception seals the ledger as a failed run; either way
    # the session writes every artifact asked for before it hands back
    with obs.session(
        tracer=obs.Tracer("repro") if args.trace else None,
        metrics=obs.MetricsRegistry() if args.metrics else None,
        profiler=profiler,
        ledger=ledger,
        trace_path=args.trace,
        metrics_path=args.metrics,
    ) as sess:
        try:
            sess.exit_code = args.handler(args)
        except (UnknownNameError, EmptyPlanError) as exc:
            print(f"repro {args.command}: {exc}", file=sys.stderr)
            sess.exit_code = 2
    if profiler is not None and profiler.stats:
        print("phase profile:", file=sys.stderr)
        print(profiler.table(), file=sys.stderr)
    if args.run_dir:
        print(f"run ledger written to {args.run_dir}", file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics:
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    return sess.exit_code


if __name__ == "__main__":
    sys.exit(main())
