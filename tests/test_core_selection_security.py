"""Unit tests for the Chronos selection algorithm and the security-bound maths."""

from __future__ import annotations

import math
from statistics import mean

import pytest

from repro.core.security_analysis import (
    AnalysisError,
    attack_threshold,
    cumulative_shift_bound,
    hypergeometric_pmf,
    hypergeometric_tail,
    panic_mode_controlled,
    shift_attack_bound,
    sweep_malicious_fraction,
)
from repro.core.selection import (
    ChronosConfig,
    ChronosConfigError,
    SelectionStatus,
    chronos_select,
    panic_select,
    trim_offsets,
)


# -- configuration ----------------------------------------------------------------

def test_default_config_matches_ndss_parameters():
    config = ChronosConfig()
    assert config.sample_size == 15
    assert config.trim_count == 5
    assert attack_threshold(config.sample_size) == 10  # two-thirds of the sample


def test_config_validation():
    with pytest.raises(ChronosConfigError):
        ChronosConfig(sample_size=2)
    with pytest.raises(ChronosConfigError):
        ChronosConfig(err=0.0)
    with pytest.raises(ChronosConfigError):
        ChronosConfig(max_retries=-1)
    with pytest.raises(ChronosConfigError):
        ChronosConfig(poll_interval=0.0)


def test_local_bound_grows_with_elapsed_time():
    config = ChronosConfig(err=0.1, drift_ppm=10.0)
    assert config.local_bound(0.0) == pytest.approx(0.1)
    assert config.local_bound(3600.0) == pytest.approx(0.1 + 0.036)


# -- trimming -----------------------------------------------------------------------

def test_trim_offsets_drops_extremes():
    survivors, discarded = trim_offsets([5.0, 1.0, 3.0, 2.0, 4.0], trim_count=1)
    assert survivors == [2.0, 3.0, 4.0]
    assert sorted(discarded) == [1.0, 5.0]


def test_trim_zero_keeps_everything():
    survivors, discarded = trim_offsets([3.0, 1.0, 2.0], trim_count=0)
    assert survivors == [1.0, 2.0, 3.0]
    assert discarded == []


def test_trim_too_aggressive_leaves_nothing():
    survivors, discarded = trim_offsets([1.0, 2.0], trim_count=1)
    assert survivors == []
    assert discarded == [1.0, 2.0]


# -- selection -----------------------------------------------------------------------

def honest_offsets(count, magnitude=0.002):
    return [magnitude * ((i % 5) - 2) / 2 for i in range(count)]


def test_all_honest_samples_accepted():
    config = ChronosConfig()
    result = chronos_select(honest_offsets(15), config)
    assert result.accepted
    assert result.status is SelectionStatus.OK
    assert abs(result.offset) < config.err
    assert len(result.surviving_offsets) == 5
    assert len(result.discarded_offsets) == 10


def test_minority_attacker_is_trimmed_away():
    """Up to a third of shifted samples end up in the discarded extremes."""
    config = ChronosConfig()
    offsets = honest_offsets(10) + [600.0] * 5
    result = chronos_select(offsets, config)
    assert result.accepted
    assert abs(result.offset) < config.err
    assert 600.0 not in result.surviving_offsets


def test_attacker_just_below_two_thirds_cannot_control_quietly():
    config = ChronosConfig()
    offsets = honest_offsets(6) + [600.0] * 9
    result = chronos_select(offsets, config)
    # Either the attack value was trimmed away, or the checks rejected the
    # round; in no case is a large offset silently adopted.
    assert not (result.accepted and abs(result.offset) > config.err)


def test_attacker_with_two_thirds_controls_but_trips_checks():
    """Ten of fifteen malicious samples dominate the survivors, but the
    local-agreement check catches the big jump — forcing retries/panic,
    which is exactly why pool-level control matters."""
    config = ChronosConfig()
    offsets = honest_offsets(5) + [600.0] * 10
    result = chronos_select(offsets, config)
    assert not result.accepted
    assert result.status in (SelectionStatus.WIDE_SPREAD, SelectionStatus.FAR_FROM_LOCAL)
    survivors, _ = trim_offsets(offsets, config.trim_count)
    assert mean(survivors) == pytest.approx(600.0)


def test_small_shift_within_err_is_accepted():
    """An attacker with 2/3 of samples can push the clock by up to ~err per round."""
    config = ChronosConfig(err=0.1)
    offsets = honest_offsets(5) + [0.09] * 10
    result = chronos_select(offsets, config)
    assert result.accepted
    assert result.offset == pytest.approx(0.09, abs=0.01)


def test_wide_spread_rejected():
    config = ChronosConfig(err=0.01)
    offsets = [0.0, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.4, -0.4,
               0.5, -0.5, 0.6, -0.6]
    result = chronos_select(offsets, config)
    assert not result.accepted
    assert result.status is SelectionStatus.WIDE_SPREAD


def test_far_from_local_rejected():
    config = ChronosConfig(err=0.05)
    offsets = [1.0 + 0.001 * i for i in range(15)]  # tight cluster, far from 0
    result = chronos_select(offsets, config)
    assert result.status is SelectionStatus.FAR_FROM_LOCAL


def test_too_few_samples_rejected():
    config = ChronosConfig()
    result = chronos_select([0.0] * 5, config)
    assert result.status is SelectionStatus.TOO_FEW_SAMPLES


def test_panic_select_trims_thirds_of_whole_pool():
    offsets = [0.0] * 60 + [600.0] * 30
    result = panic_select(offsets, ChronosConfig())
    assert result.accepted
    assert result.offset == pytest.approx(0.0, abs=1e-9)


def test_panic_select_controlled_by_two_thirds_pool_majority():
    offsets = [0.0] * 44 + [600.0] * 89
    result = panic_select(offsets, ChronosConfig())
    assert result.offset == pytest.approx(600.0, abs=1e-9)


def test_panic_select_empty():
    result = panic_select([], ChronosConfig())
    assert not result.accepted


# -- hypergeometric machinery ------------------------------------------------------------

def test_pmf_sums_to_one():
    total = sum(hypergeometric_pmf(96, 30, 15, k) for k in range(0, 16))
    assert total == pytest.approx(1.0)


def test_pmf_zero_outside_support():
    assert hypergeometric_pmf(96, 5, 15, 6) == 0.0
    assert hypergeometric_pmf(96, 5, 15, -1) == 0.0


def test_tail_monotone_in_threshold():
    values = [hypergeometric_tail(96, 30, 15, k) for k in range(0, 16)]
    assert values == sorted(values, reverse=True)


def test_tail_certain_when_all_malicious():
    assert hypergeometric_tail(96, 96, 15, 10) == pytest.approx(1.0)


def test_tail_zero_when_not_enough_malicious_exist():
    assert hypergeometric_tail(96, 9, 15, 10) == 0.0


def test_attack_threshold_is_two_thirds():
    assert attack_threshold(15) == 10
    assert attack_threshold(9) == 6
    assert attack_threshold(12) == 8


def test_shift_attack_bound_impossible_without_servers():
    bound = shift_attack_bound(96, 0, 15)
    assert bound.per_round_probability == 0.0
    assert bound.expected_years_to_success == math.inf


def test_expected_years_decrease_with_more_malicious_servers():
    years = [shift_attack_bound(96, malicious, 15).expected_years_to_success
             for malicious in (10, 20, 31, 64, 89)]
    finite = [y for y in years if y != math.inf]
    assert finite == sorted(finite, reverse=True)


def test_post_attack_effort_is_minutes_not_years():
    # well under a year (minutes)
    assert shift_attack_bound(133, 89, 15).expected_years_to_success < 1e-3


def test_pre_attack_effort_exceeds_post_attack_by_orders_of_magnitude():
    before = shift_attack_bound(96, 31, 15).expected_seconds_to_success
    after = shift_attack_bound(133, 89, 15).expected_seconds_to_success
    assert before / after > 100


def test_sweep_is_ordered_by_fraction():
    bounds = sweep_malicious_fraction(96, 15, [0.1, 0.3, 0.6])
    assert [b.malicious_servers for b in bounds] == sorted(b.malicious_servers for b in bounds)


def test_panic_mode_control_requires_two_thirds():
    assert not panic_mode_controlled(96, 31)
    assert not panic_mode_controlled(96, 63)
    assert panic_mode_controlled(96, 64)
    assert panic_mode_controlled(133, 89)
    assert not panic_mode_controlled(0, 0)


def test_strongest_tolerated_mitm_rarely_wins_a_round():
    # The strongest attacker Chronos claims to tolerate: just under a third
    # of a 500-server pool (§III's "strong MitM needs decades").
    bound = shift_attack_bound(500, 166, 15)
    assert bound.per_round_probability < 0.01
    # The matching cumulative (100 ms) bound is in the years-to-decades regime.
    cumulative = cumulative_shift_bound(bound.pool_size, bound.malicious_servers,
                                        bound.sample_size)
    assert cumulative.expected_years > 1.0


# -- cumulative shift bound (the "20 years for 100 ms" shape) ------------------------------

def test_cumulative_bound_pre_attack_is_years_or_more():
    bound = cumulative_shift_bound(96, 31, target_shift=0.1, per_round_shift=0.025)
    assert not bound.panic_controlled
    assert bound.rounds_required == 4
    assert bound.expected_years > 1.0


def test_cumulative_bound_post_attack_is_under_a_day():
    bound = cumulative_shift_bound(133, 89, target_shift=0.1, per_round_shift=0.025)
    assert bound.panic_controlled
    assert bound.expected_seconds < 86400


def test_cumulative_bound_scales_with_target():
    small = cumulative_shift_bound(96, 31, target_shift=0.05, per_round_shift=0.025)
    large = cumulative_shift_bound(96, 31, target_shift=0.5, per_round_shift=0.025)
    assert large.rounds_required > small.rounds_required
    assert large.expected_years > small.expected_years


def test_cumulative_bound_rejects_bad_parameters():
    with pytest.raises(AnalysisError):
        cumulative_shift_bound(96, 31, target_shift=0.0)
    with pytest.raises(AnalysisError):
        cumulative_shift_bound(96, 31, target_shift=0.1, per_round_shift=-1.0)
