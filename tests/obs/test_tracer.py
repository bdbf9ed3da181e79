"""Tracer: span nesting, depth bookkeeping, and the disabled null object."""

import pytest

from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer


def test_complete_spans_record_interval_and_args():
    tracer = Tracer()
    record = tracer.span("cpu", "sign", 1.0, 1.5, cat="libcrypto", size=32)
    assert record.duration == pytest.approx(0.5)
    assert record.depth == 0
    assert record.args == (("size", 32),)
    assert tracer.spans == [record]


def test_begin_end_nest_and_assign_depth():
    tracer = Tracer()
    tracer.begin("cpu", "outer", 0.0, cat="batch")
    inner = tracer.span("cpu", "inner", 0.1, 0.2, cat="libssl")
    outer = tracer.end("cpu", 0.3)
    assert inner.depth == 1
    assert outer.depth == 0
    assert outer.start == 0.0 and outer.end == 0.3
    # containment holds: the child lies inside the parent interval
    assert outer.start <= inner.start and inner.end <= outer.end


def test_nesting_is_per_track():
    tracer = Tracer()
    tracer.begin("a", "open-on-a", 0.0)
    sibling = tracer.span("b", "on-other-track", 0.0, 1.0)
    assert sibling.depth == 0
    tracer.end("a", 1.0)


def test_end_without_begin_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="no open span"):
        tracer.end("cpu", 1.0)


def test_tracks_preserve_first_seen_order():
    tracer = Tracer()
    tracer.span("beta", "x", 0.0, 1.0)
    tracer.instant("alpha", "e", 0.5)
    tracer.counter("gamma", "cwnd", 0.7, 10)
    assert tracer.tracks() == ["beta", "alpha", "gamma"]
    assert [s.name for s in tracer.spans_on("beta")] == ["x"]


def test_null_tracer_is_disabled_and_recordless():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    NULL_TRACER.begin("cpu", "x", 0.0)
    NULL_TRACER.span("cpu", "y", 0.0, 1.0, cat="libssl")
    NULL_TRACER.end("cpu", 1.0)  # no open-span bookkeeping -> no raise
    NULL_TRACER.instant("cpu", "e", 0.5)
    NULL_TRACER.counter("cpu", "c", 0.5, 1)
    assert NULL_TRACER.empty
    assert NULL_TRACER.tracks() == []


def test_empty_property():
    tracer = Tracer()
    assert tracer.empty
    tracer.instant("t", "e", 0.0)
    assert not tracer.empty
