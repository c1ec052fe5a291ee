"""The host clock: stretches of wall time scaled by the probes around them."""

import pytest

from perfbench import child
from perfbench.spans import SpanRecorder


def clock(monkeypatch, times, probes, **kw):
    """A HostClock fed scripted monotonic times and probe results."""
    it_t, it_p = iter(times), iter(probes)
    monkeypatch.setattr(child.time, "monotonic", lambda: next(it_t))
    return child.HostClock(0.0, lambda: next(it_p), SpanRecorder(), **kw)


def test_stretches_are_scaled_by_the_mean_of_the_probes_around_them(monkeypatch):
    ref = child.PROBE_REF_S
    # tick at t=2 (probe reads 2x ref: host at half speed), restart at 2.1;
    # tick at t=5.1 (probe reads ref), restart at 5.2
    c = clock(monkeypatch, [2.0, 2.1, 5.1, 5.2], [2 * ref, ref])
    c.tick()
    assert c.wall == 2.0
    assert c.scaled == pytest.approx(1.0)     # no probe before: 2 s / 2
    c.tick()
    assert c.wall == 5.0                      # probe time is not counted
    assert c.scaled == pytest.approx(1.0 + 3.0 / 1.5)
    assert c.probes == [2 * ref, ref]


def test_a_clock_can_start_from_the_previous_phase_s_probe(monkeypatch):
    ref = child.PROBE_REF_S
    c = clock(monkeypatch, [4.0, 4.1], [ref], last_probe=3 * ref)
    c.tick()
    assert c.scaled == pytest.approx(4.0 / 2.0)


def test_short_stretches_are_not_probed_unless_forced(monkeypatch):
    short = child.MIN_SEGMENT_S / 2
    c = clock(monkeypatch, [short, short, short + 1e-3], [child.PROBE_REF_S])
    c.tick()
    assert (c.wall, c.probes) == (0.0, [])
    c.tick(force=True)
    assert c.wall == short and len(c.probes) == 1
