"""Tracer behavior: ring buffer, exports, and the observability facade."""

from __future__ import annotations

import json

from repro import obs
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    chrome_trace,
    events_from_jsonl,
    ordered,
)


def _clocked_tracer(times: list[float]) -> Tracer:
    ticks = iter(times)
    return Tracer(clock=lambda: next(ticks))


# -- recording ---------------------------------------------------------------------------

def test_instant_and_span_record_sim_time():
    tracer = _clocked_tracer([1.5, 2.0, 5.0])
    tracer.instant("dns.query.sent", category="dns", qname="pool.ntp.org")
    with tracer.span("resolve", category="dns"):
        pass
    events = tracer.events()
    assert [e.name for e in events] == ["dns.query.sent", "resolve"]
    instant, span = events
    assert instant.phase == "i" and instant.ts == 1.5
    assert instant.arg("qname") == "pool.ntp.org"
    assert span.phase == "X" and span.ts == 2.0 and span.dur == 3.0


def test_sequence_numbers_give_total_order_at_same_instant():
    tracer = Tracer(clock=lambda: 7.0)
    tracer.instant("first")
    tracer.instant("second")
    assert [e.name for e in ordered(tracer.events())] == ["first", "second"]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.instant("ignored")
    with tracer.span("also-ignored"):
        pass
    assert len(tracer) == 0 and tracer.events_recorded == 0


# -- ring buffer -------------------------------------------------------------------------

def test_ring_buffer_evicts_oldest_and_counts():
    tracer = Tracer(clock=lambda: 0.0, capacity=3)
    for index in range(5):
        tracer.instant(f"event-{index}")
    assert [e.name for e in tracer.events()] == ["event-2", "event-3", "event-4"]
    assert tracer.events_recorded == 5
    assert tracer.events_evicted == 2
    tracer.clear()
    assert len(tracer) == 0 and tracer.events_evicted == 0


# -- JSONL round trip --------------------------------------------------------------------

def test_jsonl_roundtrip_is_lossless(tmp_path):
    tracer = _clocked_tracer([0.5, 1.0])
    tracer.instant("a", category="dns", txid=17, poisoned=True)
    tracer.complete("b", start=0.25, category="net", reason="loss")
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    restored = events_from_jsonl(path.read_text())
    assert restored == list(tracer.events())
    assert events_from_jsonl(tracer.to_jsonl()) == restored


def test_jsonl_lines_are_valid_json():
    tracer = Tracer(clock=lambda: 1.0)
    tracer.instant("x", category="dns", qname="pool.ntp.org")
    (line,) = tracer.to_jsonl().splitlines()
    data = json.loads(line)
    assert data["name"] == "x" and data["ph"] == "i" and data["ts"] == 1.0


# -- Chrome trace export -----------------------------------------------------------------

def test_chrome_trace_schema(tmp_path):
    tracer = _clocked_tracer([0.001, 0.0015, 0.002, 0.01])
    tracer.instant("dns.query.sent", category="dns")
    tracer.instant("attack.frag_burst", category="attack")
    with tracer.span("resolve", category="dns"):
        pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    document = json.loads(path.read_text())

    assert set(document) == {"traceEvents", "displayTimeUnit"}
    events = document["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert {"process_name", "thread_name"} <= {e["name"] for e in metadata}
    (process,) = [e for e in metadata if e["name"] == "process_name"]
    assert process["args"]["name"] == "repro"
    # one thread (tid) per category, named by thread_name metadata
    names = {e["tid"]: e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
    assert set(names.values()) == {"dns", "attack"}

    instants = [e for e in events if e["ph"] == "i"]
    spans = [e for e in events if e["ph"] == "X"]
    assert all(e["s"] == "t" for e in instants)
    assert instants[0]["ts"] == 1000.0  # 0.001 s -> µs
    (span,) = spans
    assert span["dur"] == (0.01 - 0.002) * 1e6
    for event in instants + spans:
        assert names[event["tid"]] == event["cat"]


def test_chrome_trace_defaults_unnamed_category():
    document = chrome_trace([TraceEvent(name="n", phase="i", ts=0.0)])
    thread = [e for e in document["traceEvents"] if e.get("name") == "thread_name"]
    assert thread[0]["args"]["name"] == "events"


# -- facade ------------------------------------------------------------------------------

def test_capture_installs_and_restores():
    before = obs.current()
    with obs.capture() as ob:
        assert obs.current() is ob
        assert ob.enabled
    assert obs.current() is before


def test_capture_metrics_only_keeps_trace_off():
    with obs.capture(trace=False) as ob:
        ob.trace.instant("ignored")
        ob.metrics.counter("seen").inc()
        assert len(ob.trace) == 0
        assert ob.metrics.snapshot().counter("seen") == 1


def test_bind_clock_never_mutates_the_null_singleton():
    obs.NULL_OBS.bind_clock(lambda: 42.0)
    assert obs.NULL_OBS.trace.clock() == 0.0


def test_simulator_adopts_captured_facade_and_clock():
    from repro.netsim.simulator import Simulator

    with obs.capture() as ob:
        simulator = Simulator(seed=1)
        simulator.schedule(2.5, lambda: ob.trace.instant("tick"))
        simulator.run(until=3.0)
    (event,) = [e for e in ob.trace.events() if e.name == "tick"]
    assert event.ts == 2.5
    assert ob.metrics.snapshot().counter("sim.events_executed") >= 1
