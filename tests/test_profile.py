"""Phase profiler: attribution, nesting, exception safety, hotspots."""

import time

import pytest

from repro import obs
from repro.obs import get_profiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    NULL_PROFILER,
    TRACE_MIRROR_MIN_WALL_S,
    PhaseProfiler,
    hotspot_text,
    profile_hotspots,
)
from repro.obs.trace import Tracer


class TestPhaseProfiler:
    def test_accumulates_calls_and_wall(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.phase("work"):
                time.sleep(0.001)
        (stat,) = prof.phases()
        assert stat.name == "work"
        assert stat.calls == 3
        assert stat.wall_s >= 0.003
        assert stat.max_wall_s <= stat.wall_s
        assert stat.cpu_s >= 0.0

    def test_nested_phases_are_inclusive(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                time.sleep(0.002)
        stats = {s.name: s for s in prof.phases()}
        assert stats["outer"].wall_s >= stats["inner"].wall_s

    def test_reentrant_same_name_nesting(self):
        prof = PhaseProfiler()
        with prof.phase("p"):
            with prof.phase("p"):
                pass
        assert prof.stats["p"].calls == 2

    def test_exception_still_recorded(self):
        prof = PhaseProfiler()
        with pytest.raises(ValueError):
            with prof.phase("doomed"):
                raise ValueError("boom")
        assert prof.stats["doomed"].calls == 1
        # the span is reusable again after the exception
        with prof.phase("doomed"):
            pass
        assert prof.stats["doomed"].calls == 2

    def test_exception_unwinds_nested_alloc_stack(self):
        prof = PhaseProfiler(alloc=True)
        try:
            with pytest.raises(RuntimeError):
                with prof.phase("outer"):
                    with prof.phase("inner"):
                        raise RuntimeError
            assert prof.stats["outer"].calls == 1
            assert prof.stats["inner"].calls == 1
            assert prof._stack == []
        finally:
            prof.close()

    def test_alloc_attribution(self):
        prof = PhaseProfiler(alloc=True)
        try:
            with prof.phase("alloc_heavy"):
                blob = [bytes(200_000) for _ in range(5)]
            assert prof.stats["alloc_heavy"].alloc_peak_bytes > 500_000
            del blob
        finally:
            prof.close()

    def test_phases_sorted_by_wall_desc(self):
        prof = PhaseProfiler()
        with prof.phase("slow"):
            time.sleep(0.004)
        with prof.phase("fast"):
            pass
        assert [s.name for s in prof.phases()] == ["slow", "fast"]

    def test_to_json_and_table(self):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        (row,) = prof.to_json()
        assert row["name"] == "x"
        assert row["calls"] == 1
        assert "x" in prof.table()
        assert "(no phases recorded)" in PhaseProfiler().table()

    def test_export_metrics(self):
        prof = PhaseProfiler()
        with prof.phase("m"):
            pass
        reg = MetricsRegistry()
        prof.export_metrics(reg)
        text = reg.to_prometheus()
        assert 'repro_phase_calls_total{phase="m"} 1' in text
        assert "repro_phase_wall_seconds_total" in text

    def test_tracer_mirror_respects_min_wall(self):
        tracer = Tracer("t")
        with obs.session(tracer=tracer):
            prof = PhaseProfiler()
            with prof.phase("long_enough"):
                time.sleep(2 * TRACE_MIRROR_MIN_WALL_S)
            with prof.phase("blink"):
                pass
        names = [ev.name for ev in tracer.events]
        assert "long_enough" in names
        assert "blink" not in names


class TestSingleton:
    def test_default_is_null_and_free(self):
        assert get_profiler() is NULL_PROFILER
        assert not get_profiler().enabled
        with get_profiler().phase("anything"):
            pass
        assert get_profiler().stats == {}

    def test_set_and_restore(self):
        prof = PhaseProfiler()
        with pytest.raises(RuntimeError), obs.session(profiler=prof):
            assert get_profiler() is prof
            raise RuntimeError("boom")
        assert get_profiler() is NULL_PROFILER

    def test_profiling_context(self):
        prof = PhaseProfiler()
        with obs.session(profiler=prof, metrics=MetricsRegistry()):
            assert get_profiler() is prof
            with get_profiler().phase("inside"):
                pass
        assert get_profiler() is NULL_PROFILER
        assert prof.stats["inside"].calls == 1


class TestHotspots:
    def test_profile_hotspots_returns_result_and_table(self):
        def work():
            return sum(i * i for i in range(50_000))

        result, hs = profile_hotspots(work, top=5)
        assert result == sum(i * i for i in range(50_000))
        assert len(hs.hotspots) <= 5
        assert hs.total_calls > 0
        assert hs.hotspots[0].cumtime >= hs.hotspots[-1].cumtime
        text = hotspot_text(hs)
        assert "cum [s]" in text
        json_doc = hs.to_json()
        assert json_doc["hotspots"][0]["cumtime"] == hs.hotspots[0].cumtime
