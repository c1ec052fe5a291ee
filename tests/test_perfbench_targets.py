"""Every name perfbench's traced pass wraps still exists.

``perfbench --trace 1`` wraps module globals and class attributes of
``repro`` by name (``perfbench.layers.instrument``); a name deleted or
renamed under ``src/`` breaks that pass only.  Entering and leaving the
instrumentation resolves every one of them.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_patch_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.layers import instrument
    from perfbench.spans import SpanRecorder

    with instrument(SpanRecorder()):
        pass
