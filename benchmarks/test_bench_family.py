"""``make bench``: every BENCH family through the runner, full size."""

from __future__ import annotations

import pytest

from benchmarks.__main__ import MEASURES, run_family


@pytest.mark.parametrize("family", MEASURES)
def test_bench_family(family, benchmark, emit):
    benchmark.pedantic(
        run_family, args=(family,), kwargs={"emit": emit},
        rounds=1, iterations=1,
    )
