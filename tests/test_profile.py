"""Phase probes and profiler: attribution, nesting, exception safety,
one timing per region, worker threads, hotspots."""

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro import obs
from repro.chem.builders import water
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    NULL_PROFILER,
    PHASE_GUARD,
    PHASE_INTEGRITY,
    PHASE_STORE_ATTACH,
    PhaseProfiler,
    hotspot_text,
    profile_hotspots,
)
from repro.obs.trace import Tracer
from repro.scf.hf import RHF


def get_profiler():
    """The current session's profiler: a session given no instruments
    inherits every one of the enclosing session's."""
    with obs.session() as sess:
        return sess.profiler


@contextmanager
def profiled(alloc: bool = False, tracer: Tracer | None = None):
    """A session with a fresh profiler (and registry) installed."""
    prof = PhaseProfiler(alloc=alloc)
    with obs.session(profiler=prof, tracer=tracer, metrics=MetricsRegistry()):
        yield prof


class TestPhaseProfiler:
    def test_accumulates_calls_and_wall(self):
        with profiled() as prof:
            for _ in range(3):
                with obs.phase("work"):
                    time.sleep(0.001)
        (stat,) = prof.phases()
        assert stat.name == "work"
        assert stat.calls == 3
        assert stat.wall_s >= 0.003
        assert stat.max_wall_s <= stat.wall_s
        assert stat.cpu_s >= 0.0

    def test_nested_phases_are_inclusive(self):
        with profiled() as prof:
            with obs.phase("outer"):
                with obs.phase("inner"):
                    time.sleep(0.002)
        stats = {s.name: s for s in prof.phases()}
        assert stats["outer"].wall_s >= stats["inner"].wall_s

    def test_reentrant_same_name_nesting(self):
        with profiled() as prof:
            with obs.phase("p"):
                with obs.phase("p"):
                    pass
        assert prof.stats["p"].calls == 2

    def test_exception_still_recorded(self):
        with profiled() as prof:
            with pytest.raises(ValueError):
                with obs.phase("doomed"):
                    raise ValueError("boom")
            assert prof.stats["doomed"].calls == 1
            with obs.phase("doomed"):
                pass
        assert prof.stats["doomed"].calls == 2

    def test_exception_unwinds_nested_alloc_stack(self):
        with profiled(alloc=True) as prof:
            with pytest.raises(RuntimeError):
                with obs.phase("outer"):
                    with obs.phase("inner"):
                        raise RuntimeError
            assert prof.stats["outer"].calls == 1
            assert prof.stats["inner"].calls == 1
            assert prof._stack == []

    def test_alloc_attribution(self):
        with profiled(alloc=True) as prof:
            with obs.phase("alloc_heavy"):
                blob = [bytes(200_000) for _ in range(5)]
            assert prof.stats["alloc_heavy"].alloc_peak_bytes > 500_000
            del blob

    def test_phases_sorted_by_wall_desc(self):
        with profiled() as prof:
            with obs.phase("slow"):
                time.sleep(0.004)
            with obs.phase("fast"):
                pass
        assert [s.name for s in prof.phases()] == ["slow", "fast"]

    def test_to_json_and_table(self):
        with profiled() as prof:
            with obs.phase("x"):
                pass
        (row,) = prof.to_json()
        assert row["name"] == "x"
        assert row["calls"] == 1
        assert "x" in prof.table()
        assert "(no phases recorded)" in PhaseProfiler().table()

    def test_export_metrics(self):
        with profiled() as prof:
            with obs.phase("m"):
                pass
        reg = MetricsRegistry()
        prof.export_metrics(reg)
        text = reg.to_prometheus()
        assert 'repro_phase_calls_total{phase="m"} 1' in text
        assert "repro_phase_wall_seconds_total" in text


class TestOneProbe:
    """``obs.phase`` times a region once and records it once per
    installed instrument."""

    def test_span_and_stat_share_one_timing(self):
        tracer = Tracer("t")
        with profiled(tracer=tracer) as prof:
            with obs.phase("region", cat="scf", final=True) as sp:
                sp["energy"] = -1.5
            with obs.phase("blink"):
                pass
        region, blink = tracer.spans()
        assert (region.name, region.cat) == ("region", "scf")
        assert region.args == {"final": True, "energy": -1.5}
        assert region.dur == prof.stats["region"].wall_s
        # no threshold: a sub-microsecond region is a span as well
        assert (blink.name, blink.cat) == ("blink", "phase")
        assert blink.dur == prof.stats["blink"].wall_s

    def test_tracer_alone_records_the_span(self):
        tracer = Tracer("t")
        with obs.session(tracer=tracer):
            with obs.phase("region"):
                pass
        assert [(e.name, e.cat) for e in tracer.spans()] == [("region", "phase")]
        assert get_profiler().stats == {}

    def test_worker_threads_record_on_their_own_tracks(self):
        """More threads than cores, switching every microsecond: a lost
        stat update would show in ``calls``."""
        nthreads, probes = 3, 2000
        tracer, barrier = Tracer("t"), threading.Barrier(nthreads)

        def work():
            barrier.wait(timeout=10)
            for _ in range(probes):
                with obs.phase("chunk"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with profiled(tracer=tracer) as prof:
                threads = [threading.Thread(target=work) for _ in range(nthreads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert prof.stats["chunk"].calls == nthreads * probes
        tids = [e.tid for e in tracer.spans()]
        assert len(tids) == nthreads * probes and len(set(tids)) == nthreads


class TestProbePhases:
    """The guard and the integrity layer each run in a phase of their
    own, only when armed, so a probe's cost is its share of one run."""

    def test_each_probe_records_its_phase_only_when_armed(self, tmp_path):
        store = str(tmp_path / "store")
        RHF(water(), integral_store=store).run()  # fill: the next run is warm
        drivers = {
            "plain": RHF(water()),
            "guarded": RHF(water(), guard=True),
            "stored, integrity": RHF(water(), integral_store=store, integrity=True),
        }
        seen, iterations = {}, {}
        for name, driver in drivers.items():
            with profiled() as prof:
                iterations[name] = driver.run().iterations
            seen[name] = {
                p: prof.stats[p].calls
                for p in (PHASE_GUARD, PHASE_INTEGRITY) if p in prof.stats
            }
            probes = prof.wall(PHASE_GUARD, PHASE_INTEGRITY)
            assert probes == sum(prof.stats[p].wall_s for p in seen[name])
        assert seen["plain"] == {}
        assert seen["guarded"].keys() == {PHASE_GUARD}
        # F, D, damp and observe each iteration, plus the ERI sentinel
        assert seen["guarded"][PHASE_GUARD] > 4 * iterations["guarded"]
        # the F and D checks each iteration, one CRC pass as the store maps
        n = iterations["stored, integrity"]
        assert seen["stored, integrity"] == {PHASE_INTEGRITY: 2 * n + 1}


def test_attaching_a_store_is_a_phase():
    """A default RHF attaches its private store -- and imports
    ``scipy.sparse`` -- inside its run, in one ``store_attach`` phase."""
    with profiled() as prof:
        RHF(water()).run()
    assert prof.stats[PHASE_STORE_ATTACH].calls == 1


class TestSingleton:
    def test_default_is_null_and_free(self):
        assert get_profiler() is NULL_PROFILER
        assert not get_profiler().enabled
        assert obs.phase("a") is obs.phase("b")
        with obs.phase("anything") as sp:
            sp["ignored"] = 1
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
            with obs.phase("inside"):
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
