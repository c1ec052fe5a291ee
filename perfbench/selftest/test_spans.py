"""Span arithmetic and attribute patching."""

import math

import pytest

from perfbench.spans import Span, SpanRecorder, patched


def recorder(*spans):
    rec = SpanRecorder("t")
    rec.spans = [Span(*s) for s in spans]
    return rec


def test_self_time_with_nested_and_sibling_children():
    rec = recorder(
        ("body", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),      # sibling 1, with a nested child
        ("a.inner", 2.0, 3.5, 1),
        ("b", 6.0, 9.0, 0),      # sibling 2
    )
    assert rec.self_times() == [3.0, 2.5, 1.5, 3.0]
    assert rec.total("a", "b") == 7.0
    assert rec.total_self("a") == 2.5
    # self times partition the root exactly
    assert math.isclose(sum(rec.self_times()), 10.0)


def test_select_filters_by_any_ancestor():
    rec = recorder(
        ("setup", 0.0, 1.0, -1), ("x", 0.1, 0.2, 0),
        ("body", 1.0, 5.0, -1), ("analyze", 1.0, 4.0, 2),
        ("whatifs", 2.0, 3.0, 3), ("x", 2.0, 2.5, 4), ("x", 4.0, 4.5, 2),
    )
    assert rec.select("x") == [1, 5, 6]
    assert rec.select("x", under="body") == [5, 6]
    assert rec.select("x", under="body", not_under="analyze") == [6]
    assert rec.total("x", under="analyze") == 0.5


def test_wrap_records_parent_and_survives_exceptions():
    rec = SpanRecorder("t")

    def boom():
        raise ValueError("x")

    inner = rec.wrap("inner", lambda: 7)
    with rec.span("outer"):
        assert inner() == 7
        with pytest.raises(ValueError):
            rec.wrap("boom", boom)()
        assert inner() == 7
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("outer", -1), ("inner", 0), ("boom", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in rec.spans)
    doc = rec.chrome_trace()
    assert [e["args"]["parent"] for e in doc["traceEvents"][1:]] == [-1, 0, 0, 0]


def test_wrap_count_counts_without_spans():
    rec = SpanRecorder("t")
    f = rec.wrap_count("hot", lambda x: x + 1)
    assert [f(i) for i in range(5)] == [1, 2, 3, 4, 5]
    assert rec.counts == {"hot": 5} and rec.spans == []


class Base:
    def inherited(self):
        return "base"


class Target(Base):
    def method(self):
        return "method"

    @staticmethod
    def static(x):
        return x

    @classmethod
    def klass(cls):
        return cls.__name__


def test_patched_restores_every_original_even_when_the_body_raises():
    rec = SpanRecorder("t")
    before = dict(vars(Target))
    targets = [
        (Target, name, lambda fn, n=name: rec.wrap(n, fn))
        for name in ("method", "static", "klass", "inherited")
    ]
    with pytest.raises(RuntimeError):
        with patched(targets):
            t = Target()
            assert (t.method(), Target.static(3), Target.klass(),
                    t.inherited()) == ("method", 3, "Target", "base")
            raise RuntimeError("body failed")
    assert dict(vars(Target)) == before
    assert "inherited" not in vars(Target)
    assert sorted(s.name for s in rec.spans) == [
        "inherited", "klass", "method", "static"]


def test_patched_restores_what_it_installed_when_a_target_is_missing():
    before = dict(vars(Target))
    with pytest.raises(AttributeError):
        with patched([(Target, "method", lambda fn: fn),
                      (Target, "no_such_attr", lambda fn: fn)]):
            pass
    assert dict(vars(Target)) == before
