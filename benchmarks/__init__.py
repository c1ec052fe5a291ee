"""Benchmarks: one script per paper table/figure plus the BENCH families
driven by ``python -m benchmarks`` (see ``__main__.py``)."""
