"""Unit tests for the simulated clocks and the baseline ntpd selection pipeline."""

from __future__ import annotations

import pytest

from repro.netsim.simulator import Simulator
from repro.ntp.clock import SystemClock
from repro.ntp.query import TimeSample
from repro.ntp.selection import (
    cluster_survivors,
    combine_offset,
    marzullo_intersection,
    ntpd_select,
    sample_interval,
    select_truechimers,
)


# -- clocks ------------------------------------------------------------------------

def test_clock_tracks_true_time_by_default():
    sim = Simulator()
    clock = SystemClock(sim)
    assert clock.error == pytest.approx(0.0)
    sim.schedule(100.0, lambda: None)
    sim.run()
    assert clock.error == pytest.approx(0.0)
    assert clock.now() == pytest.approx(clock.true_time())


def test_clock_initial_offset_is_reported_as_error():
    clock = SystemClock(Simulator(), offset=0.25)
    assert clock.error == pytest.approx(0.25)


def test_adjust_moves_clock_both_ways():
    sim = Simulator()
    clock = SystemClock(sim)
    clock.adjust(0.5)
    assert clock.error == pytest.approx(0.5)
    clock.adjust(-0.5)
    assert clock.error == pytest.approx(0.0)


def test_true_time_immune_to_adjustments():
    sim = Simulator()
    clock = SystemClock(sim)
    before = clock.true_time()
    clock.adjust(1000.0)
    assert clock.true_time() == pytest.approx(before)


# -- selection helpers -----------------------------------------------------------------

def sample(offset, delay=0.02, server="s"):
    return TimeSample(server=server, offset=offset, delay=delay, stratum=2,
                      root_dispersion=0.005, completed_at=0.0)


def test_marzullo_empty_input():
    count, interval = marzullo_intersection([])
    assert count == 0
    assert interval is None


def test_marzullo_single_interval():
    count, interval = marzullo_intersection([(0.0, 1.0)])
    assert count == 1
    assert interval == (0.0, 1.0)


def test_marzullo_majority_overlap():
    intervals = [(-0.1, 0.1), (-0.05, 0.15), (0.0, 0.2), (10.0, 10.2)]
    count, interval = marzullo_intersection(intervals)
    assert count == 3
    low, high = interval
    assert low >= -0.05 and high <= 0.15


def test_marzullo_disjoint_intervals():
    count, _ = marzullo_intersection([(0, 1), (2, 3), (4, 5)])
    assert count == 1


def test_marzullo_handles_swapped_bounds():
    count, interval = marzullo_intersection([(1.0, 0.0), (0.5, 1.5)])
    assert count == 2


def test_sample_interval_contains_offset():
    s = sample(0.1, delay=0.04)
    low, high = sample_interval(s)
    assert low < 0.1 < high


def test_truechimers_exclude_far_outlier():
    samples = [sample(0.001), sample(-0.002), sample(0.0), sample(5.0)]
    true_samples, false_samples = select_truechimers(samples)
    assert len(true_samples) == 3
    assert len(false_samples) == 1
    assert false_samples[0].offset == 5.0


def test_truechimers_exclude_implausible_delay():
    bad = TimeSample(server="x", offset=0.0, delay=-1.0, stratum=2,
                     root_dispersion=0.0, completed_at=0.0)
    true_samples, false_samples = select_truechimers([sample(0.0), bad])
    assert bad in false_samples


def test_truechimers_empty_input():
    true_samples, false_samples = select_truechimers([])
    assert true_samples == [] and false_samples == []


def test_cluster_keeps_at_most_max_survivors():
    samples = [sample(i * 0.001) for i in range(20)]
    survivors = cluster_survivors(samples, max_survivors=10)
    assert len(survivors) == 10


def test_combine_offset_weighted_by_delay():
    near = sample(0.0, delay=0.001)
    far = sample(1.0, delay=10.0)
    combined = combine_offset([near, far])
    assert combined < 0.1  # the low-delay sample dominates


def test_combine_offset_empty_rejected():
    with pytest.raises(ValueError):
        combine_offset([])


# -- the full baseline pipeline ----------------------------------------------------------

def test_ntpd_select_agreeing_servers():
    samples = [sample(0.01), sample(0.012), sample(0.008), sample(0.011)]
    result = ntpd_select(samples)
    assert result.succeeded
    assert result.offset == pytest.approx(0.01, abs=0.005)
    assert len(result.survivors) == 4


def test_ntpd_select_single_falseticker_filtered():
    samples = [sample(0.0), sample(0.001), sample(-0.001), sample(10.0)]
    result = ntpd_select(samples)
    assert result.succeeded
    assert abs(result.offset) < 0.01
    assert all(s.offset != 10.0 for s in result.survivors)


def test_ntpd_select_majority_attack_succeeds():
    """With 4 upstream servers all attacker-controlled (the post-poisoning
    baseline situation) the pipeline happily adopts the shifted time."""
    samples = [sample(600.0), sample(600.001), sample(599.999), sample(600.0)]
    result = ntpd_select(samples)
    assert result.succeeded
    assert result.offset == pytest.approx(600.0, abs=0.01)


def test_ntpd_select_no_samples():
    result = ntpd_select([])
    assert not result.succeeded
    assert result.offset is None


def test_ntpd_select_all_implausible():
    bad = TimeSample(server="x", offset=0.0, delay=50.0, stratum=2,
                     root_dispersion=0.0, completed_at=0.0)
    result = ntpd_select([bad, bad])
    assert not result.succeeded
