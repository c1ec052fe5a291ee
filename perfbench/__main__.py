"""``python3 -m perfbench``: run the benchmark, compare two results, or
regenerate the goldens.  Run from the repository root.

The last line of standard output of a run is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.metrics import RUN_SECONDS, WORKLOADS


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="python3 -m perfbench",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS), action="append",
                   help="run only this workload (repeatable; default: all "
                        "four, rounds interleaved)")
    p.add_argument("--seed", type=int, default=0,
                   help="0: canonical geometry checked against the goldens; "
                        "s > 0: seeded rigid rotation of every molecule")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="measuring time of a run in ten-second round slots "
                        "(never under three rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                   default=0,
                   help="1: the traced pass (untraced, traced, untraced "
                        "round per workload; per-layer metrics and a "
                        "Chrome trace)")
    p.add_argument("--smoke", action="store_true",
                   help="one round of small variants, for CI; not comparable")
    p.add_argument("--out", metavar="FILE",
                   help="also write the full result document here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="compare two --out files and exit non-zero on 'worse'")
    p.add_argument("--regen-goldens", action="store_true",
                   help="rewrite goldens.json from the code as it stands; "
                        "never in a change that claims a gain")
    # one round in a fresh process; used by the harness only
    p.add_argument("--child", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    p.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.compare:
        from perfbench import compare

        return compare.main(*args.compare)

    from perfbench import harness

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {harness.SRC}/repro",
              file=sys.stderr)
        return 2
    if args.child:
        from perfbench import child

        return child.main(args)
    if args.regen_goldens:
        harness.regen_goldens()
        return 0

    doc = harness.run_pass(
        args.workload or list(WORKLOADS), args.seed,
        rounds=1 if args.smoke else harness.rounds_for(args.seconds),
        traced=bool(args.trace), smoke=args.smoke,
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    harness.print_report(doc)
    if not harness.complete(doc):
        print("perfbench: every round of a workload failed; no result",
              file=sys.stderr)
        return 1
    line = harness.contract_line(doc)
    if args.smoke:
        line["smoke"] = True
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
