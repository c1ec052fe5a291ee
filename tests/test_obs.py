"""Tests for repro.obs: tracing, metrics, and the pipeline instrumentation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water
from repro.fock.gtfock import gtfock_build
from repro.fock.stealing import run_work_stealing
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian
from repro.obs import (
    HOST_PID,
    NULL_TRACER,
    SIM_PID,
    Counter,
    Gauge,
    MetricsRegistry,
    NullTracer,
    PhaseProfiler,
    RunLedger,
    Tracer,
    export_commstats,
    get_ledger,
    get_metrics,
    get_tracer,
    load_run,
    phase,
    session,
)
from repro.obs.trace import _EXPORT_CHUNK, _coerce
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats


def instants(tracer, name=None):
    """The trace's instant events (of one name), in emission order."""
    return [ev for ev in tracer.events
            if ev.phase == "i" and name in (None, ev.name)]


def get_profiler():
    """The current session's profiler: a session given no instruments
    inherits every one of the enclosing session's."""
    with session() as sess:
        return sess.profiler


def assert_properly_nested(spans):
    """Spans (ts, end) on one thread must nest, never partially overlap."""
    stack = []
    for ts, end in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and ts >= stack[-1] - 1e-12:
            stack.pop()
        if stack:
            assert end <= stack[-1] + 1e-12, "partially overlapping spans"
        stack.append(end)


class TestTracer:
    def test_nested_host_spans(self):
        tr = Tracer("t")
        with tr.span("outer", cat="x"):
            with tr.span("inner", cat="x"):
                pass
            with tr.span("inner2", cat="x") as sp:
                sp["k"] = 1
        spans = tr.spans(pid=HOST_PID)
        assert [s.name for s in spans] == ["inner", "inner2", "outer"]
        assert spans[1].args == {"k": 1}
        outer = spans[2]
        for inner in spans[:2]:
            assert outer.ts <= inner.ts and inner.end <= outer.end
        assert_properly_nested([(s.ts, s.end) for s in spans])

    def test_span_records_even_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError
        assert [s.name for s in tr.spans()] == ["boom"]

    def test_virtual_spans_and_instants(self):
        tr = Tracer()
        tr.virtual_span("work", proc=3, start=1.0, end=2.5, cat="task", n=7)
        tr.virtual_instant("steal", proc=3, t=2.5, victim=1)
        span = tr.spans(cat="task")[0]
        assert (span.pid, span.tid, span.ts, span.end) == (SIM_PID, 3, 1.0, 2.5)
        inst = instants(tr, "steal")[0]
        assert inst.ts == 2.5 and inst.args["victim"] == 1

    def test_chrome_trace_structure(self):
        tr = Tracer("demo")
        with tr.span("a"):
            pass
        tr.virtual_span("w", proc=0, start=0.0, end=1.0)
        doc = tr.chrome_trace()
        json.dumps(doc)  # serializable
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {HOST_PID, SIM_PID}
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        virt = next(e for e in xs if e["pid"] == SIM_PID)
        assert virt["ts"] == 0.0 and virt["dur"] == 1e6  # seconds -> us

    def test_write_chrome_and_jsonl(self, tmp_path):
        tr = Tracer()
        with tr.span("a", cat="c", n=np.int64(3)):  # numpy arg must serialize
            pass
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        tr.write(str(chrome))
        tr.write(str(jsonl))
        assert "traceEvents" in json.loads(chrome.read_text())
        recs = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert recs[0]["name"] == "a" and recs[0]["clock"] == "host"

    def test_jsonl_streams_task_runs(self, tmp_path):
        tr = Tracer()
        tr.virtual_instant("steal", 1, 0.5, victim=0)
        tr.virtual_task_run(1, 1.0, np.array([0.5, 2.0]), np.array([4, 5]))
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(str(path))
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert recs == [ev.to_record() for ev in tr.events]
        assert [r["ts"] for r in recs] == [0.5, 1.0, 1.5]
        assert recs[2] == {"type": "span", "clock": "virtual", "name": "task",
                           "cat": "task", "tid": 1, "ts": 1.5, "dur": 1.5,
                           "args": {"task": "5"}}

    @pytest.mark.parametrize(
        "nevents", [0, 1, _EXPORT_CHUNK - 1, _EXPORT_CHUNK, _EXPORT_CHUNK + 1]
    )
    def test_streamed_chrome_export_equals_the_document(self, tmp_path, nevents):
        """write_chrome writes chunk by chunk; the file must still parse
        to exactly chrome_trace(), also across a chunk boundary."""
        tr = Tracer("stream")
        for i in range(nevents):
            if i % 3 == 1:
                tr.virtual_span("w", proc=i % 5, start=0.1 * i, end=0.1 * i + 0.05,
                                cat="task", task=str(i))
            elif i % 6 == 5:  # a one-span columnar task run
                tr.virtual_task_run(i % 5, 0.1 * i, np.array([0.05]), [i])
            else:
                tr.virtual_instant("steal", proc=i % 5, t=0.1 * i, victim=i % 4)
        path = tmp_path / "t.json"
        tr.write_chrome(str(path))
        assert json.loads(path.read_text()) == tr.chrome_trace()

    def test_streamed_chrome_export_coerces_numpy_args(self, tmp_path):
        tr = Tracer()
        with tr.span("host", n=np.int64(3), x=np.float32(0.5)):
            pass
        tr.virtual_span("w", proc=np.int64(2), start=np.float64(1.0), end=2.0,
                        nbytes=np.float64(8.0), flag=np.bool_(True))
        path = tmp_path / "t.json"
        tr.write_chrome(str(path))
        # the one-shot encoder falls back to the same _coerce hook
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(tr.chrome_trace(), default=_coerce)
        )
        assert path.read_text() == json.dumps(tr.chrome_trace(), default=_coerce)

    def test_task_run_equals_single_calls(self):
        """The scheduler's capture call: edges, durations and labels are
        derived on read, from the arrays as they are *then*."""
        cum = np.array([1.5, 1.5, 4.0, 4.25])
        tasks = np.array([7, 8, 9, 10])
        run, single = Tracer(), Tracer()
        run.virtual_task_run(3, 2.0, cum[:3], tasks[:3])
        run.virtual_task_run(3, 0.5, [], [])
        run.virtual_task_run(5, 1.0, np.array([0.25]), [("m", 2)])
        edges = [2.0, 3.5, 3.5, 6.0]
        for i in range(3):
            single.virtual_span("task", 3, edges[i], edges[i + 1], cat="task",
                                task=str(7 + i))
        single.virtual_span("task", 5, 1.0, 1.25, cat="task", task="('m', 2)")
        assert run.events == single.events
        assert run.spans(cat="task", pid=SIM_PID) == single.spans(cat="task")
        assert run.spans(cat="sched") == instants(run) == []
        assert "".join(run.chrome_chunks()) == "".join(single.chrome_chunks())
        with pytest.raises(ValueError, match="2 tasks for 1 costs"):
            run.virtual_task_run(0, 0.0, np.array([1.0]), [1, 2])

    def test_null_tracer_records_nothing(self):
        nt = NullTracer()
        with nt.span("x") as sp:
            sp["ignored"] = 1
        nt.instant("i")
        nt.virtual_span("v", 0, 0.0, 1.0)
        nt.virtual_task_run(0, 0.0, np.array([1.0]), [1])
        nt.virtual_instant("vi", 0, 0.0)
        assert nt.events == []
        assert not nt.enabled

    def test_active_tracer_management(self):
        assert get_tracer() is NULL_TRACER
        tr = Tracer()
        with pytest.raises(RuntimeError), session(tracer=tr):
            assert get_tracer() is tr
            raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_tracing_context_manager(self):
        tr = Tracer()
        with session(tracer=tr):
            assert get_tracer() is tr
            with get_tracer().span("inside"):
                pass
        assert get_tracer() is NULL_TRACER
        assert [s.name for s in tr.spans()] == ["inside"]


_RESERVED = {"name", "cat", "proc", "start", "end", "t", "self"}
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-320, 1e22, 1e16, 123456.789e-9,
                     float("nan"), float("inf"), float("-inf")]),
)
_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u20ac\ud800\udfff%')),
    max_size=6,
)
_scalars = st.one_of(
    _text,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    _floats,
    st.integers(-(2**62), 2**62).map(np.int64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    _floats.map(np.float64),
    st.booleans().map(np.bool_),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(_text, st.one_of(_scalars, st.lists(_scalars, max_size=2)),
                    max_size=2),
)
_args = st.dictionaries(_text.filter(lambda k: k not in _RESERVED), _values,
                        max_size=3)
_times = st.one_of(
    st.floats(0.0, 1e4), st.integers(0, 50),
    st.floats(0.0, 1e4).map(np.float64),
    st.sampled_from([float("nan"), float("inf"), 1e-320, 1e303]),
)
_procs = st.one_of(st.integers(0, 5), st.integers(0, 5).map(np.int64),
                   st.booleans())
_task_runs = st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n).map(
        lambda costs: np.cumsum(costs) if costs else np.empty(0)),
    st.one_of(
        st.lists(st.integers(-5, 10**6), min_size=n, max_size=n).map(
            lambda codes: np.array(codes, dtype=np.int64)),
        st.lists(st.one_of(_text, st.tuples(st.integers(), st.integers())),
                 min_size=n, max_size=n),
    ),
))
_ops = st.one_of(
    st.tuples(st.just("span"), _text, _text, _args),
    st.tuples(st.just("odd_key"), st.one_of(
        st.integers(-9, -1), st.booleans(), st.none()), _values),
    st.tuples(st.just("instant"), _text, _args),
    st.tuples(st.just("virtual_span"), _text, _procs, _times, _times, _args),
    st.tuples(st.just("virtual_instant"), _text, _procs, _times, _args),
    st.tuples(st.just("virtual_task_run"), _procs, _times, _task_runs),
)


def _json_view(obj):
    """What a JSON round trip makes of ``obj``, with NaN made comparable."""
    if isinstance(obj, dict):
        return {_json_view(k if isinstance(k, str) else json.dumps(k)):
                _json_view(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_view(v) for v in obj]
    if isinstance(obj, str):  # a surrogate pair reads back as one character
        return obj.encode("utf-16", "surrogatepass").decode(
            "utf-16", "surrogatepass")
    if hasattr(obj, "item"):
        obj = obj.item()
    return "NaN" if isinstance(obj, float) and obj != obj else obj


class TestChromeSerializer:
    """``chrome_chunks`` writes the log column by column with its own
    fast paths; ``chrome_trace()`` through the stock encoder is the
    oracle it must match byte for byte."""

    @given(st.lists(_ops, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_text_equals_the_one_shot_encoding(self, ops):
        tr = Tracer("p%\u00e9")
        with np.errstate(over="ignore", invalid="ignore"):  # 1e303 s in us
            self._replay(tr, ops)
            text = "".join(tr.chrome_chunks())
            oracle = tr.chrome_trace()
        assert text == json.dumps(oracle, default=_coerce)
        assert _json_view(json.loads(text)) == _json_view(oracle)

    @staticmethod
    def _replay(tr, ops):
        for op, *rest in ops:
            if op == "span":
                name, cat, args = rest
                with tr.span(name, cat=cat, **args):
                    pass
            elif op == "odd_key":
                with tr.span("odd") as sp:
                    sp[rest[0]] = rest[1]
            elif op == "instant":
                tr.instant(rest[0], **rest[1])
            elif op == "virtual_span":
                name, proc, start, end, args = rest
                tr.virtual_span(name, proc, start, end, cat="c", **args)
            elif op == "virtual_instant":
                name, proc, t, args = rest
                tr.virtual_instant(name, proc, t, **args)
            else:
                proc, t0, (cum, tasks) = rest
                tr.virtual_task_run(proc, t0, cum, tasks)

    def test_a_name_that_spells_the_template_mark(self):
        """Templates are cut out of the encoder's output for an event whose
        values are all ``_MARK``; a name or key that reads like the mark
        must not be mistaken for a value slot."""
        from repro.obs.trace import _MARK

        tr = Tracer()
        for mark in (repr(_MARK), repr(_MARK * 1e6)):
            tr.virtual_span(mark, 0, 1.0, 2.0, k=1)
            tr.virtual_instant("i", 1, 1.0, **{mark: "v", "x" + mark: _MARK})
            tr.virtual_span("plain", 2, _MARK, 2.0, k=_MARK * 1e6, s=mark)
        text = "".join(tr.chrome_chunks())
        assert text == json.dumps(tr.chrome_trace(), default=_coerce)

    def test_report_embeds_the_exported_text(self, tmp_path, monkeypatch):
        """NumPy span arguments that ``write_chrome`` accepts used to make
        the report page raise (``json.dumps`` without the ``_coerce``
        hook): the page embeds the serializer's own text, the same bytes
        ``--trace`` writes."""
        import base64
        import re

        from repro.cli import main
        from repro.fock import chaos
        from repro.obs import get_tracer

        build_inputs = chaos.build_inputs

        def with_numpy_args(*args):
            get_tracer().instant(
                "x", n=np.int64(3), x=np.float32(0.5), flag=np.bool_(True)
            )
            return build_inputs(*args)

        monkeypatch.setattr(chaos, "build_inputs", with_numpy_args)
        page, path = tmp_path / "r.html", tmp_path / "t.json"
        assert main(["report", "h2", "--basis", "sto-3g", "--nproc", "2",
                     "--trace", str(path), "--out", str(page)]) == 0
        payload = re.search(
            r"data:application/json;base64,([^\"]+)", page.read_text()
        )
        assert base64.b64decode(payload.group(1)).decode() == path.read_text()
        assert '"args": {"n": 3, "x": 0.5, "flag": true}' in path.read_text()


def _value(metric, **labels):
    """``metric``'s value at ``labels`` (0 when unset), from its samples."""
    want = {k: str(v) for k, v in labels.items()}
    return next((v for _, got, v in metric.samples() if got == want), 0)


def _exported(stats):
    """``export_commstats`` into a fresh registry."""
    with session(metrics=MetricsRegistry()):
        return export_commstats(stats)


class TestMetrics:
    def test_counter(self):
        c = Counter("c_total", labelnames=("proc",))
        c.inc(proc=0)
        c.inc(5, proc=0)
        c.inc(2, proc=1)
        assert _value(c, proc=0) == 6
        assert _value(c, proc=1) == 2
        assert _value(c, proc=9) == 0
        with pytest.raises(ValueError):
            c.inc(-1, proc=0)
        with pytest.raises(ValueError):
            c.inc(1)  # missing label

    def test_counter_preserves_ints(self):
        c = Counter("c_total")
        c.inc(2**60)
        c.inc(3)
        assert _value(c) == 2**60 + 3
        assert isinstance(_value(c), int)

    def test_gauge(self):
        g = Gauge("g")
        g.set(1.5)
        g.inc()
        assert _value(g) == 2.5

    def test_gauge_set_all_replaces_the_matching_series(self):
        g = Gauge("g", labelnames=("proc", "alg"))
        g.set_all("proc", [1.0, 2.0, 3.0], alg="a")
        g.set_all("proc", [9.0], alg="b")
        g.set_all("proc", [4.0, 5.0], alg="a")
        assert sorted(
            (lbl["alg"], lbl["proc"], v) for _, lbl, v in g.samples()
        ) == [("a", "0", 4.0), ("a", "1", 5.0), ("b", "0", 9.0)]
        with pytest.raises(ValueError):
            g.set_all("proc", [1.0])  # missing label

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labelnames=("p",))
        assert reg.counter("x_total", labelnames=("p",)) is a
        with pytest.raises(ValueError):
            reg.gauge("x_total")  # kind conflict
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("q",))  # label conflict
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", labelnames=("code",)).inc(3, code=200)
        reg.gauge("temp", "temperature").set(1.5)
        text = reg.to_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 3' in text
        assert "temp 1.5" in text

    def test_write_json_and_prom(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n_total").inc(7)
        jpath = tmp_path / "m.json"
        ppath = tmp_path / "m.prom"
        reg.write(str(jpath))
        reg.write(str(ppath))
        doc = json.loads(jpath.read_text())
        assert doc["n_total"]["series"][0]["value"] == 7
        assert "n_total 7" in ppath.read_text()

    def test_global_registry_swap(self):
        fresh, prev = MetricsRegistry(), get_metrics()
        with session(metrics=fresh):
            assert get_metrics() is fresh
        assert get_metrics() is prev


class TestSession:
    """``obs.session``: the one install / teardown / restore path."""

    @staticmethod
    def current():
        return (get_tracer(), get_metrics(), get_profiler(), get_ledger())

    def test_no_arguments_is_the_null_fast_path(self):
        before = self.current()
        with session() as sess:
            assert self.current() == before
            assert (sess.tracer, sess.metrics, sess.profiler, sess.ledger) \
                == before
        assert self.current() == before
        assert get_tracer() is NULL_TRACER and not get_tracer().enabled
        assert phase("a") is phase("b")
        assert not get_profiler().enabled and not get_ledger().enabled

    @pytest.mark.parametrize("raises", [False, True])
    def test_nesting_inherits_and_restores(self, raises):
        outermost = self.current()
        tr, reg, prof = Tracer(), MetricsRegistry(), PhaseProfiler()
        with session(tracer=tr, metrics=reg):
            outer = self.current()
            assert outer == (tr, reg) + outermost[2:]
            try:
                with session(profiler=prof):  # tracer + registry inherited
                    assert self.current() == (tr, reg, prof, outermost[3])
                    if raises:
                        raise RuntimeError("boom")
            except RuntimeError:
                assert raises
            assert self.current() == outer
            # the inner teardown exported into the registry it inherited
            assert "repro_phase_calls_total" in reg
        assert self.current() == outermost

    def test_one_teardown_for_all_four_instruments(self, tmp_path):
        """``--profile --metrics --trace --run-dir`` in one session: the
        phase table reaches the registry *before* the ledger's final
        snapshot and the metrics file are written from it."""
        prof = PhaseProfiler()
        ledger = RunLedger(tmp_path / "run", command="t", config={})
        trace, prom = tmp_path / "t.json", tmp_path / "m.prom"
        with session(
            tracer=Tracer(), metrics=MetricsRegistry(), profiler=prof,
            ledger=ledger, trace_path=str(trace), metrics_path=str(prom),
        ) as sess:
            with phase("work"):
                get_ledger().snapshot("mid")
            sess.exit_code = 3
        assert 'repro_phase_calls_total{phase="work"} 1' in prom.read_text()
        names = [e["name"] for e in json.loads(trace.read_text())["traceEvents"]]
        assert "work" in names
        record = load_run(ledger.path)
        assert record.summary["exit_code"] == 3
        assert [p["name"] for p in record.summary["phases"]] == ["work"]
        mid, final = record.snapshots
        assert (mid["label"], final["label"]) == ("mid", "final")
        assert "repro_phase_calls_total" not in mid["metrics"]
        assert "repro_phase_calls_total" in final["metrics"]

    def test_a_raising_body_still_tears_everything_down(self, tmp_path):
        """The run is sealed as failed, and an ``alloc=True`` profiler
        does not leave ``tracemalloc`` tracing (``repro perf profile
        --alloc`` used to, when the run raised)."""
        import tracemalloc

        assert not tracemalloc.is_tracing()
        ledger = RunLedger(tmp_path / "run", command="t", config={})
        with pytest.raises(RuntimeError):
            with session(profiler=PhaseProfiler(alloc=True), ledger=ledger):
                assert tracemalloc.is_tracing()
                raise RuntimeError("boom")
        assert not tracemalloc.is_tracing()
        assert load_run(ledger.path).summary["exit_code"] == 1


class TestCommStatsBridge:
    def make_stats(self):
        stats = CommStats(4, LONESTAR)
        rng = np.random.default_rng(7)
        for p in range(4):
            stats.charge_comm(p, int(rng.integers(1, 10**7)), ncalls=int(rng.integers(1, 9)))
            stats.charge_comm(p, int(rng.integers(1, 10**5)), remote=False)
            stats.charge_compute(p, float(rng.random()))
        return stats

    def test_table6_table7_counters_bit_for_bit(self):
        stats = self.make_stats()
        reg = _exported(stats)
        nbytes = reg.get("repro_comm_bytes_total")
        calls = reg.get("repro_comm_calls_total")
        total_bytes = sum(v for _, _, v in nbytes.samples())
        total_calls = sum(v for _, _, v in calls.samples())
        # exact integer totals -> the Table VI / VII averages reproduce
        # bit-for-bit
        assert total_bytes == int(stats.bytes.sum())
        assert total_calls == int(stats.calls.sum())
        assert total_bytes / stats.nproc / 1e6 == stats.volume_mb_per_process()
        assert total_calls / stats.nproc == stats.calls_per_process()
        assert (
            _value(reg.get("repro_comm_volume_mb_per_process"))
            == stats.volume_mb_per_process()
        )
        assert (
            _value(reg.get("repro_comm_calls_per_process"))
            == stats.calls_per_process()
        )

    def test_load_balance_exported(self):
        stats = self.make_stats()
        reg = _exported(stats)
        assert _value(reg.get("repro_comm_load_balance_ratio")) == pytest.approx(
            stats.load_balance()
        )
        assert stats.summary()["load_balance"] == stats.load_balance()

    def test_per_proc_labels(self):
        stats = self.make_stats()
        reg = _exported(stats)
        clock = reg.get("repro_comm_clock_seconds")
        for p in range(4):
            assert _value(clock, proc=p) == float(stats.clock[p])


class TestSchedulerTracing:
    def test_task_spans_exact_times(self):
        tr = Tracer()
        queues = [[2.0, 1.0, 0.5], []]
        outcome = run_work_stealing(
            queues, cost_of=lambda c: c, grid=(1, 2),
            enable_stealing=False, tracer=tr,
        )
        tasks = [s for s in tr.spans(cat="task") if s.tid == 0]
        assert [(s.ts, s.end) for s in tasks] == [
            (0.0, 2.0), (2.0, 3.0), (3.0, 3.5)
        ]
        batches = tr.spans(cat="sched")
        assert batches[-1].end == outcome.finish_time[0]

    def test_steal_instants_recorded(self):
        tr = Tracer()
        queues = [[1.0] * 40, []]
        outcome = run_work_stealing(
            queues, cost_of=lambda c: c, grid=(1, 2), tracer=tr
        )
        steals = instants(tr, "steal")
        assert len(steals) == len(outcome.steals)
        assert steals[0].args["victim"] == 0
        assert steals[0].args["ntasks"] >= 1
        assert steals[0].args["scans"] >= 1
        assert instants(tr, "idle")  # every proc eventually idles

    def test_gtfock_build_virtual_clocks_agree(self):
        basis = BasisSet.build(water(), "sto-3g")
        engine = MDEngine(basis)
        h = core_hamiltonian(basis)
        d = np.eye(basis.nbf) * 0.3
        tr = Tracer()
        with session(tracer=tr):
            res = gtfock_build(engine, h, d, nproc=4)
        virt = tr.spans(pid=SIM_PID)
        assert virt, "expected virtual spans"
        for p in range(4):
            ends = [s.end for s in virt if s.tid == p]
            # the last virtual event on each rank is exactly its clock
            assert max(ends) == float(res.stats.clock[p])
        names = {s.name for s in virt}
        assert {"prefetch", "batch", "task"} <= names
        host_names = {s.name for s in tr.spans(pid=HOST_PID)}
        assert {"gtfock_build", "setup", "prefetch", "schedule", "flush"} <= host_names
        # per-rank spans must nest cleanly (Perfetto renders rows per tid)
        for p in range(4):
            assert_properly_nested(
                [(s.ts, s.end) for s in virt if s.tid == p and s.name != "batch"]
            )

    def test_disabled_tracing_adds_no_events(self):
        queues = [[1.0, 1.0], [1.0]]
        run_work_stealing(queues, cost_of=lambda c: c, grid=(1, 2))
        assert NULL_TRACER.events == []


class TestScfTracing:
    def test_scf_iteration_spans_and_gauges(self):
        from repro.scf.hf import RHF

        fresh, tr, prof = MetricsRegistry(), Tracer(), PhaseProfiler()
        with session(tracer=tr, metrics=fresh, profiler=prof):
            result = RHF(water(), basis_name="sto-3g").run()
        iters = [s for s in tr.spans() if s.name == "scf_iteration"]
        assert len(iters) == result.iterations
        inner = {s.name for s in tr.spans(cat="scf")}
        assert {"scf_setup", "fock_build", "diis", "diagonalize"} <= inner
        # one probe per region: every phase occurrence is exactly one span
        # (the SCF regions under cat "scf", the final build marked), and
        # no region is recorded twice
        spans = tr.spans()
        for stat in prof.phases():
            assert sum(s.name == stat.name for s in spans) == stat.calls
        (final,) = [s for s in spans if s.args.get("final")]
        assert (final.name, final.cat) == ("fock_build", "scf")
        keys = [(s.name, s.tid, s.ts) for s in spans]
        assert len(set(keys)) == len(keys)
        e = _value(fresh.get("repro_scf_energy_hartree"), molecule="H2O")
        assert e == pytest.approx(result.energy)
        assert _value(fresh.get("repro_scf_converged"), molecule="H2O") == 1
        assert (
            _value(fresh.get("repro_scf_iterations_total"), molecule="H2O")
            == result.iterations
        )


class TestCli:
    def test_scf_trace_and_metrics_flags(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        rc = main(
            ["scf", "water", "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert any(e["name"] == "scf_iteration" for e in spans)
        by_thread = {}
        for e in spans:
            by_thread.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"])
            )
        for ss in by_thread.values():
            assert_properly_nested(ss)
        text = metrics.read_text()
        assert "repro_scf_energy_hartree" in text
        # CLI restores the null tracer afterwards
        assert get_tracer() is NULL_TRACER

    def test_jsonl_trace(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        assert main(["scf", "h2", "--trace", str(trace)]) == 0
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        assert all("name" in r and "ts" in r for r in recs)
