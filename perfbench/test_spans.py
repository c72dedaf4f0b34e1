"""Self-test of the benchmark's trace aggregation and metric names.

    python3 -m pytest -q perfbench/test_spans.py
"""

import json
from pathlib import Path

import pytest

import layers
from speed import SpeedClock
from spans import METRIC_NAME, Tracer, aggregate, median_and_tail, self_by_module, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    spans = [
        ["a.outer", 0.0, 10.0, -1],
        ["b.middle", 1.0, 4.0, 0],
        ["c.inner", 2.0, 3.0, 1],
    ]
    assert self_times(spans) == [7.0, 2.0, 1.0]
    assert self_by_module(spans) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_self_time_of_back_to_back_children():
    spans = [
        ["a.parent", 0.0, 10.0, -1],
        ["a.first", 2.0, 5.0, 0],
        ["a.second", 5.0, 8.0, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_overlapping_children_count_once_and_clip_to_the_parent():
    spans = [
        ["a.parent", 0.0, 10.0, -1],
        ["a.x", 1.0, 6.0, 0],
        ["a.y", 4.0, 12.0, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_links_parents_and_counts_recursion_once():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return 1

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def outer(depth):
        return traced_leaf() + (traced_outer(depth - 1) if depth else 0)

    traced_outer = tracer.wrap("m.outer", outer)
    assert traced_outer(1) == 2
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["m.outer", "m.leaf", "m.outer", "m.leaf"]
    assert parents == [-1, 0, 0, 2]
    stats = aggregate(tracer.spans)
    assert stats["m.outer"].calls == 2
    outer_span = tracer.spans[0]
    assert stats["m.outer"].total == outer_span[2] - outer_span[1]
    # self time of both outer spans plus both leaves covers the root exactly
    total_self = sum(self_times(tracer.spans))
    assert total_self == pytest.approx(outer_span[2] - outer_span[1])


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert tracer.spans[0][2] is not None
    assert not tracer.inside("m.boom")


def test_median_and_tail_keep_ten_samples_beyond_the_tail():
    med, tail, pct = median_and_tail([float(v) for v in range(1, 101)])
    assert med == 50.5
    assert tail == 90.0 and pct == 90.0
    assert sum(v > tail for v in range(1, 101)) == 10
    assert median_and_tail([3.0, 1.0, 2.0]) == (2.0, 2.0, 50.0)


def test_counts_that_differ_between_passes_are_reported():
    one = ([["episodes.sample_episode", 0.0, 1.0, -1]], {})
    two = ([["episodes.sample_episode", 0.0, 1.0, -1]] * 2, {})
    metrics, mismatched = layers.layer_metrics(([], {}), [one, two])
    assert "episodes.sample_episode.calls" in mismatched
    assert metrics["episodes.sample_episode.s"] == pytest.approx(1.5)


def test_metric_names_are_valid_and_match_what_the_benchmark_reports():
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
    for name in names:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    reported = set(layers.layer_metrics(([], {}), [([], {})])[0])
    reported |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported


def test_speed_clock_stops_during_probes_and_scales_between_them():
    readings = iter([0.0, 1.0, 11.0, 13.0])  # probes take 1 s, then 2 s
    clock = SpeedClock(nominal=0.75, clock=lambda: next(readings))
    clock.sample()
    clock.sample()
    # between the probes the clock runs at 0.75 / mean(1, 2) = 0.5
    assert clock.to_virtual(0.5) == 0.0
    assert clock.to_virtual(1.0) == 0.0
    assert clock.to_virtual(5.0) == pytest.approx(2.0)
    assert clock.to_virtual(12.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        clock.to_virtual(14.0)
