"""``--compare A.json B.json``: is B no worse than A, within the bounds?

Both files are result documents written by ``--out``.  For every
(workload, end-to-end metric) the verdict is

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is, and the rounds of A and B do not overlap (or the
  spread is within the bound);
* ``unresolved`` the round-to-round spread of either side is wider than the
  bound, so the medians cannot settle the question -- unless every round
  of B reads better than every round of A, which is ``ok``.

Every per-layer metric tagged *exact* must be identical in A and B.
"""

from __future__ import annotations

import json

from perfbench.metrics import END_TO_END, PER_LAYER


def worsening(a: float, b: float, better: str) -> float:
    """Relative amount by which ``b`` is worse than ``a`` (negative: better)."""
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    worse_by = worsening(a["value"], b["value"], better)
    noisy = max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound
    if not noisy or "min" not in a:
        return ("worse" if worse_by > bound else "ok"), worse_by
    if better == "lower":
        b_all_better, b_all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        b_all_better, b_all_worse = b["min"] > a["max"], b["max"] < a["min"]
    if worse_by > bound and b_all_worse:
        return "worse", worse_by
    if worse_by <= bound and b_all_better:
        return "ok", worse_by
    return "unresolved", worse_by


def compare(doc_a: dict, doc_b: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything is ``worse`` or an exact differs."""
    for doc in (doc_a, doc_b):
        if doc.get("smoke"):
            raise SystemExit("--compare refuses smoke results: their sizes "
                             "are too small to time")
    if doc_a["seed"] != doc_b["seed"]:
        raise SystemExit("--compare needs two results of the same seed")
    lines = []
    bad = False
    exact_same = 0
    shared = [w for w in doc_a["workloads"] if w in doc_b["workloads"]]
    for w in shared:
        ra, rb = doc_a["workloads"][w], doc_b["workloads"][w]
        for name, spec in END_TO_END.items():
            a = ra.get("end_to_end", {}).get(name)
            b = rb.get("end_to_end", {}).get(name)
            if a is None or b is None:
                continue
            v, worse_by = verdict(a, b, spec["better"], spec["bound"])
            bad |= v == "worse"
            lines.append(
                f"{w:<11} {name:<19} A {a['value']:>12.5f}  "
                f"B {b['value']:>12.5f} {spec['unit']:<5} "
                f"worse by {worse_by:>+8.2%}  bound {spec['bound']:.1%}  {v}"
            )
        for name, spec in PER_LAYER.items():
            a = ra.get("per_layer", {}).get(name)
            b = rb.get("per_layer", {}).get(name)
            if a is None or b is None or not spec["exact"]:
                continue
            if a["value"] == b["value"]:
                exact_same += 1
            else:
                bad = True
                lines.append(f"{w:<11} {name:<19} exact metric differs: "
                             f"A {a['value']!r}  B {b['value']!r}")
    if not shared:
        raise SystemExit("--compare: the two results share no workload")
    if exact_same:
        lines.append(f"{exact_same} exact per-layer values identical")
    return lines, bad


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        lines, bad = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if bad else 0
