"""--compare verdicts."""

import pytest

from perfbench.compare import compare, verdict


def s(value, lo=None, hi=None):
    lo, hi = value if lo is None else lo, value if hi is None else hi
    return {"value": value, "min": lo, "max": hi, "n": 3,
            "spread": (hi - lo) / value}


def test_quiet_rounds_are_judged_by_their_medians():
    assert verdict(s(10.0), s(10.5), "lower", 0.10)[0] == "ok"
    assert verdict(s(10.0), s(11.5), "lower", 0.10)[0] == "worse"
    assert verdict(s(10.0), s(8.0), "lower", 0.10)[0] == "ok"
    assert verdict(s(1.0), s(0.9), "higher", 0.0)[0] == "worse"


def test_noisy_rounds_are_unresolved_unless_they_do_not_overlap():
    noisy_a = s(10.0, 9.0, 12.0)
    assert verdict(noisy_a, s(10.2, 9.5, 11.0), "lower", 0.10)[0] == "unresolved"
    assert verdict(noisy_a, s(12.0, 10.0, 13.0), "lower", 0.10)[0] == "unresolved"
    assert verdict(noisy_a, s(8.0, 7.5, 8.5), "lower", 0.10)[0] == "ok"
    assert verdict(noisy_a, s(14.0, 13.0, 15.0), "lower", 0.10)[0] == "worse"


def doc(t=8.0, quartets=100, smoke=False, seed=0):
    return {"seed": seed, "smoke": smoke, "workloads": {"scf_direct": {
        "end_to_end": {"time_to_solution_s": s(t), "setup_s": s(0.5)},
        "per_layer": {"integrals.quartets_computed": {"value": quartets},
                      "integrals.eri_kernel_s": {"value": t * 0.9}},
    }}}


def test_compare_flags_worse_and_exact_mismatches():
    assert compare(doc(), doc(8.3))[1] is False
    lines, bad = compare(doc(), doc(12.0))
    assert bad and any(l.endswith("worse") for l in lines)
    lines, bad = compare(doc(), doc(quartets=101))
    assert bad and any("exact metric differs" in l for l in lines)


def test_compare_refuses_smoke_and_mixed_seeds():
    with pytest.raises(SystemExit):
        compare(doc(), doc(smoke=True))
    with pytest.raises(SystemExit):
        compare(doc(), doc(seed=1))
