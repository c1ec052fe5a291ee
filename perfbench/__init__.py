"""perfbench: the repo's ruler for end-to-end and per-layer performance.

Run ``python3 -m perfbench --help`` from the repository root; see
``perfbench/README.md`` for the noise protocol and the metric glossary.
Importing this package imports nothing from ``repro`` and starts nothing.
"""
