"""Spans and self-time aggregation."""

import tracemalloc

import pytest

import tracing


def _span(i, name, parent, start, end, **counts):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end, "cpu": 0.0, "counts": counts}


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, "op", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),  # overlaps a: union of children is [1, 6]
        _span(3, "c", 2, 3.5, 4.5),
        _span(4, "a", None, 20.0, 21.0, work=5),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    agg = tracing.aggregate(spans)
    assert agg["a"]["self"] == pytest.approx(4.0)
    assert agg["a"]["n"] == 2
    assert agg["a"]["counts"] == {"work": 5}


def test_child_outside_parent_counts_only_the_overlap():
    spans = [_span(0, "op", None, 0.0, 2.0), _span(1, "late", 0, 1.5, 3.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_nesting_counts_and_cpu():
    tracer = tracing.Tracer()
    with tracer.span("outer", items=2) as counts:
        with tracer.span("inner"):
            sum(range(10_000))
        counts["extra"] = 1
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["counts"] == {"items": 2, "extra": 1}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert outer["cpu"] >= inner["cpu"] >= 0.0


def test_alloc_peak_propagates_to_parent():
    tracemalloc.start()
    try:
        tracer = tracing.Tracer(measure_alloc=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                block = bytearray(4 << 20)
                del block
            small = bytearray(1 << 10)
            del small
    finally:
        tracemalloc.stop()
    outer, inner = tracer.spans
    assert inner["alloc"] >= 4 << 20
    assert outer["alloc"] >= inner["alloc"]
