"""Percentile, geometric-mean and self-time arithmetic on synthetic
samples and spans."""

import math

import pytest

from bench.stats import (
    geomean,
    median,
    percentile,
    pseudo_mflops,
    second_best,
    self_times,
)
from bench.trace import NullTracer, Tracer


def test_percentiles_interpolate():
    values = list(range(1, 102))  # 1..101
    assert median(values) == 51
    assert percentile(values, 99) == 100
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_second_best_window():
    assert second_best([4.0, 2.0, 9.0, 3.0]) == 3.0
    assert second_best([7.0]) == 7.0
    with pytest.raises(ValueError):
        second_best([])


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([5.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_pseudo_mflops_is_the_papers_formula():
    assert pseudo_mflops(64, 1.0) == pytest.approx(5 * 64 * 6)
    assert pseudo_mflops(1024, 2.0) == pytest.approx(5 * 1024 * 10 / 2)


def test_self_time_subtracts_children_once():
    spans = [
        {"id": 0, "parent": None, "start": 0, "end": 100},
        {"id": 1, "parent": 0, "start": 10, "end": 40},
        # overlaps span 1: the union [10, 60) is subtracted, not 30 + 40
        {"id": 2, "parent": 0, "start": 20, "end": 60},
        {"id": 3, "parent": 2, "start": 25, "end": 30},
        # a child that runs past its parent only counts up to its end
        {"id": 4, "parent": 0, "start": 90, "end": 120},
    ]
    own = self_times(spans)
    assert own[0] == 100 - 50 - 10
    assert own[1] == 30
    assert own[2] == 40 - 5
    assert own[3] == 5


def test_tracer_records_parent_and_request():
    tracer = Tracer()

    def outer():
        tracer.call("inner", lambda: None, request=7)
        return "value"

    assert tracer.call("outer", outer, request=7) == "value"
    outer_span, inner_span = tracer.spans
    assert outer_span["parent"] is None
    assert inner_span["parent"] == outer_span["id"]
    assert inner_span["request"] == 7
    assert outer_span["start"] <= inner_span["start"] \
        <= inner_span["end"] <= outer_span["end"]
    own = self_times(tracer.spans)
    assert own[outer_span["id"]] == (
        outer_span["end"] - outer_span["start"]
        - (inner_span["end"] - inner_span["start"]))
    assert len(tracer.durations_us("inner")) == 1


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call("boom", lambda: 1 / 0)
    assert tracer.spans[0]["end"] >= tracer.spans[0]["start"] > 0
    tracer.call("next", lambda: None)
    assert tracer.spans[1]["parent"] is None


def test_null_tracer_just_calls():
    assert NullTracer().call("x", lambda: math.pi) == math.pi
