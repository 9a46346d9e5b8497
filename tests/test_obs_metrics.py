"""Metrics registry, snapshot algebra (property-tested), and key rendering."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
    parse_key,
    render_key,
)

# -- strategies --------------------------------------------------------------------------

metric_names = st.sampled_from(
    ["dns.responses_accepted", "net.packets_sent", "sim.events_executed",
     "attack.frag_bursts", "tcp.injections_rejected"])
label_values = st.sampled_from(["true", "false", "udp", "dot", "loss", "checksum"])
keys = st.tuples(
    metric_names,
    st.dictionaries(st.sampled_from(["reason", "via", "poisoned"]), label_values,
                    max_size=2),
).map(lambda pair: metric_key(pair[0], pair[1]))

counter_maps = st.dictionaries(keys, st.integers(min_value=1, max_value=10_000),
                               max_size=6)
gauge_maps = st.dictionaries(keys, st.floats(min_value=0.0, max_value=1e6,
                                             allow_nan=False), max_size=4)


def _histogram_snapshot(observations: list[int]) -> HistogramSnapshot:
    registry = MetricsRegistry()
    histogram = registry.histogram("h")
    for value in observations:
        histogram.observe(value)
    return registry.snapshot().histograms[metric_key("h", {})]


histogram_maps = st.dictionaries(
    keys,
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=8)
    .map(_histogram_snapshot),
    max_size=3,
)

snapshots = st.builds(MetricsSnapshot, counters=counter_maps, gauges=gauge_maps,
                      histograms=histogram_maps)


# -- merge algebra -----------------------------------------------------------------------

@given(a=snapshots, b=snapshots)
def test_merge_commutative(a, b):
    assert a.merge(b).to_dict() == b.merge(a).to_dict()


@given(a=snapshots, b=snapshots, c=snapshots)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c).to_dict() == a.merge(b.merge(c)).to_dict()


@given(a=snapshots)
def test_empty_is_identity(a):
    assert MetricsSnapshot.EMPTY.merge(a).to_dict() == a.to_dict()
    assert a.merge(MetricsSnapshot.EMPTY).to_dict() == a.to_dict()


@given(parts=st.lists(st.one_of(st.none(), snapshots), max_size=5))
def test_merge_all_order_independent(parts):
    forward = MetricsSnapshot.merge_all(parts)
    backward = MetricsSnapshot.merge_all(reversed(parts))
    assert forward.to_dict() == backward.to_dict()


@given(a=snapshots, b=snapshots)
def test_merge_semantics(a, b):
    merged = a.merge(b)
    for key in set(a.counters) | set(b.counters):
        assert merged.counters[key] == a.counters.get(key, 0) + b.counters.get(key, 0)
    for key in set(a.gauges) | set(b.gauges):
        candidates = [m[key] for m in (a.gauges, b.gauges) if key in m]
        assert merged.gauges[key] == max(candidates)


@given(a=snapshots)
def test_serialisation_roundtrip(a):
    assert MetricsSnapshot.from_dict(a.to_dict()).to_dict() == a.to_dict()


_HISTOGRAM = {"bounds": [1.0], "counts": [0, 1], "count": 1, "total": 2.0,
              "min": 2.0, "max": 2.0}


@pytest.mark.parametrize("data", [
    [], "counters", {"counters": 5}, {"gauges": []},
    {"counters": {"c": "lots"}}, {"counters": {"c": None}}, {"gauges": {"g": True}},
    {"histograms": {"h": []}}, {"histograms": {"h": {**_HISTOGRAM, "counts": [1]}}},
    {"histograms": {"h": {**_HISTOGRAM, "bounds": "1"}}},
    {"histograms": {"h": {**_HISTOGRAM, "total": "2"}}},
    {"histograms": {"h": {key: value for key, value in _HISTOGRAM.items() if key != "min"}}},
])
def test_from_dict_rejects_malformed_snapshots_with_value_error(data):
    with pytest.raises(ValueError):
        MetricsSnapshot.from_dict(data)


# -- keys --------------------------------------------------------------------------------

@given(name=metric_names,
       labels=st.dictionaries(st.sampled_from(["x", "reason", "via"]), label_values,
                              max_size=3))
def test_render_parse_roundtrip(name, labels):
    key = metric_key(name, labels)
    assert parse_key(render_key(key)) == key


def test_label_order_is_canonical():
    assert metric_key("m", {"b": 1, "a": 2}) == metric_key("m", {"a": 2, "b": 1})
    assert render_key(metric_key("m", {"b": 1, "a": 2})) == "m{a=2,b=1}"


# -- histogram buckets -------------------------------------------------------------------

def test_histogram_bucketing_and_stats():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    for value in (0.0005, 0.003, 0.2, 400.0):
        histogram.observe(value)
    snap = registry.snapshot().histograms[metric_key("latency", {})]
    assert snap.bounds == DEFAULT_BUCKETS
    assert snap.count == 4
    assert snap.counts[0] == 1  # <= 0.001
    assert snap.counts[-1] == 1  # overflow bucket
    assert snap.minimum == 0.0005 and snap.maximum == 400.0
    assert snap.mean == snap.total / 4


def test_histogram_merge_rejects_different_bounds():
    registry = MetricsRegistry()
    registry.histogram("a", bounds=(1.0,)).observe(0.5)
    registry.histogram("b", bounds=(2.0,)).observe(0.5)
    snap = registry.snapshot()
    a = snap.histograms[metric_key("a", {})]
    b = snap.histograms[metric_key("b", {})]
    try:
        a.merge(b)
    except ValueError:
        pass
    else:
        raise AssertionError("merge across different bounds must fail")


# -- registry ----------------------------------------------------------------------------

def test_registry_memoizes_instruments():
    registry = MetricsRegistry()
    assert registry.counter("c", via="udp") is registry.counter("c", via="udp")
    assert registry.counter("c", via="udp") is not registry.counter("c", via="dot")


def test_disabled_registry_hands_out_nulls_and_stays_empty():
    registry = MetricsRegistry(enabled=False)
    assert registry.counter("c") is NULL_COUNTER
    assert registry.gauge("g") is NULL_GAUGE
    assert registry.histogram("h") is NULL_HISTOGRAM
    registry.counter("c").inc(10)
    registry.gauge("g").track_max(5.0)
    registry.histogram("h").observe(1.0)
    assert registry.snapshot().is_empty()


def test_snapshot_drops_zero_counters_and_empty_histograms():
    registry = MetricsRegistry()
    registry.counter("touched")  # created but never incremented
    registry.histogram("silent")  # created but never observed
    registry.counter("counted").inc()
    snap = registry.snapshot()
    assert snap.counter("counted") == 1
    assert metric_key("touched", {}) not in snap.counters
    assert not snap.histograms


def test_counter_total_sums_over_labels():
    registry = MetricsRegistry()
    registry.counter("dns.rejections", defense="0x20").inc(2)
    registry.counter("dns.rejections", defense="cookies").inc(3)
    assert registry.snapshot().counter_total("dns.rejections") == 5
