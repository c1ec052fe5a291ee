"""Self-tests of the harness: ``python -m pytest perfbench/selftest -q``."""
