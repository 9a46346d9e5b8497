"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.netsim.simulator import SimulationError, Simulator
from repro.obs import Observability


def executed(sim: Simulator) -> int:
    return sim.obs.metrics.counter("sim.events_executed").value


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_initial_time_can_be_set():
    assert Simulator(start_time=100.0).now == 100.0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, lambda lbl=label: order.append(lbl))
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator(start_time=10.0)
    fired = []
    sim.schedule_at(15.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [15.0]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock advanced to the until mark
    sim.run()
    assert fired == [1, 10]


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("exact"))
    sim.run(until=5.0)
    assert fired == ["exact"]


def test_run_for_advances_relative_to_now():
    sim = Simulator(start_time=100.0)
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run_for(5.0)
    assert fired == [102.0]
    assert sim.now == 105.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("no"))
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent_after_fire():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()  # must not raise
    assert handle.cancelled


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_step_processes_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    assert sim.step() is True
    assert fired == [1]


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_events_processed_counter():
    sim = Simulator(obs=Observability())
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert executed(sim) == 5


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek_next_time() == 2.0


def test_peek_next_time_empty_returns_none():
    assert Simulator().peek_next_time() is None


def test_rng_determinism_same_seed():
    values_a = [Simulator(seed=7).rng.random() for _ in range(1)]
    values_b = [Simulator(seed=7).rng.random() for _ in range(1)]
    assert values_a == values_b


def test_rng_differs_across_seeds():
    assert Simulator(seed=1).rng.random() != Simulator(seed=2).rng.random()


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_clock_never_goes_backwards():
    sim = Simulator()
    observed = []
    for delay in (5.0, 1.0, 3.0, 2.0):
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)


# -- cancelled-event compaction ------------------------------------------------

def test_events_cancelled_counter_counts_dead_entries_only():
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    pending = sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    # Cancelling after the fire is not a dead heap entry.
    fired.cancel()
    assert sim.events_cancelled == 0
    pending.cancel()
    pending.cancel()  # idempotent: counted once
    assert sim.events_cancelled == 1


def test_mass_cancellation_compacts_the_heap_automatically():
    sim = Simulator(obs=Observability())
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
    assert sim.queue_length == 200
    for handle in handles[:150]:
        handle.cancel()
    # The 100th cancel trips the threshold (>= 64 cancelled making up half
    # the heap) and compacts 200 entries down to the 100 live ones; the
    # remaining 50 cancels stay below threshold and are reclaimed lazily.
    assert sim.queue_length == 100
    assert sim.pending_events == 50
    assert sim.events_cancelled == 150
    sim.run()
    assert executed(sim) == 50


def test_explicit_compact_drops_cancelled_entries():
    sim = Simulator()
    keep = []
    handles = [sim.schedule(float(i + 1), lambda i=i: keep.append(i)) for i in range(10)]
    for handle in handles[::2]:
        handle.cancel()
    assert sim.queue_length == 10  # below the automatic threshold
    sim.compact()
    assert sim.queue_length == 5
    assert sim.pending_events == 5
    sim.run()
    assert keep == [1, 3, 5, 7, 9]


def test_compaction_preserves_insertion_order_for_same_time_events():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    doomed = [sim.schedule(1.0, lambda: order.append("dead")) for _ in range(3)]
    sim.schedule(1.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("c"))
    for handle in doomed:
        handle.cancel()
    sim.compact()
    sim.run()
    assert order == ["a", "b", "c"]


def test_peek_and_step_reclaim_cancelled_entries_lazily():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.queue_length == 2
    assert sim.peek_next_time() == 2.0
    assert sim.queue_length == 1  # the dead head was popped during the peek
    assert sim.step() is True
    assert sim.step() is False
