"""End-to-end tests of the paper's attack scenarios (E1, E2, E6, E9)."""

from __future__ import annotations

import pytest

from repro.attacks.baseline_scenario import BaselineAttackConfig, TraditionalClientAttackScenario
from repro.attacks.chronos_pool_attack import (
    ChronosPoolAttackScenario,
    PoolAttackConfig,
    analytic_pool_composition,
)
from repro.core.pool_generation import PoolComposition
from repro.core.security_analysis import shift_reached
from repro.core.selection import ChronosConfig, chronos_select, panic_select
from repro.ntp.query import TimeSample
from repro.ntp.selection import ntpd_select
from repro.population.batch import FleetPolicy


# -- the closed-form arithmetic of §IV ------------------------------------------------------


def reference_pool_composition(poison_at_query, query_count=24, benign_per_response=4,
                               attacker_records=89, malicious_ttl=2 * 86400,
                               query_interval=3600.0):
    """The §IV arithmetic as written out before it moved onto
    ``compose_client``: a frozen oracle for the differential test below."""
    if poison_at_query is None or poison_at_query > query_count:
        return PoolComposition(benign=query_count * benign_per_response, malicious=0)
    if poison_at_query < 1:
        raise ValueError("poison_at_query must be >= 1")
    benign_queries = poison_at_query - 1
    remaining_window = (query_count - poison_at_query) * query_interval
    if malicious_ttl >= remaining_window:
        benign = benign_queries * benign_per_response
    else:
        expired_after = int(malicious_ttl // query_interval)
        later_benign_queries = max(0, query_count - poison_at_query - expired_after)
        benign = (benign_queries + later_benign_queries) * benign_per_response
    return PoolComposition(benign=benign, malicious=attacker_records)


@pytest.mark.parametrize("records", [4, 89])
@pytest.mark.parametrize("malicious_ttl", [300, 3600, 5 * 3600, 10 * 3600, 86400, 2 * 86400])
def test_analytic_composition_matches_the_reference_arithmetic(records, malicious_ttl):
    policy = FleetPolicy(attacker_records=records, malicious_ttl=malicious_ttl)
    for k in (None, *range(1, 26)):
        expected = reference_pool_composition(k, attacker_records=records,
                                              malicious_ttl=malicious_ttl)
        assert analytic_pool_composition(k, policy) == expected, k

def test_analytic_composition_no_attack():
    composition = analytic_pool_composition(None)
    assert composition.benign == 96
    assert composition.malicious == 0


def test_analytic_composition_figure1_numbers():
    composition = analytic_pool_composition(12)
    assert composition.benign == 4 * 11 == 44
    assert composition.malicious == 89
    assert composition.attacker_has_two_thirds


def test_analytic_composition_query_13_fails():
    composition = analytic_pool_composition(13)
    assert composition.benign == 48
    assert not composition.attacker_has_two_thirds


def test_analytic_composition_poisoning_first_query_is_best_case():
    composition = analytic_pool_composition(1)
    assert composition.benign == 0
    assert composition.malicious == 89
    assert composition.malicious_fraction == 1.0


def test_analytic_composition_low_ttl_lets_benign_servers_return():
    short_ttl = analytic_pool_composition(1, FleetPolicy(malicious_ttl=3600))
    long_ttl = analytic_pool_composition(1, FleetPolicy(malicious_ttl=2 * 86400))
    assert short_ttl.benign > long_ttl.benign
    assert not short_ttl.attacker_has_two_thirds


def test_analytic_composition_fewer_attacker_records():
    # Poisoning late with only 4 attacker records cannot reach two-thirds
    # against the benign servers accumulated before the poisoning.
    capped = analytic_pool_composition(12, FleetPolicy(attacker_records=4))
    assert capped.malicious == 4
    assert capped.benign == 44
    assert not capped.attacker_has_two_thirds


def test_analytic_composition_rejects_bad_index():
    with pytest.raises(ValueError):
        analytic_pool_composition(0)
    with pytest.raises(ValueError):
        reference_pool_composition(0)


# -- the packet-level Chronos pool attack ---------------------------------------------------

def run_scenario(poison_at_query, seed=5, **config_kwargs):
    config = PoolAttackConfig(seed=seed, poison_at_query=poison_at_query, **config_kwargs)
    scenario = ChronosPoolAttackScenario(config)
    return scenario, scenario.run_pool_generation()


def test_no_attack_pool_is_benign_and_near_96():
    _, result = run_scenario(None)
    assert result["malicious"] == 0
    # 24 responses x 4 addresses = 96, minus duplicates from the zone rotation.
    assert 60 <= result["pool_size"] <= 96
    assert not result["attack_succeeded"]


def test_poisoning_at_query_1_floods_pool():
    _, result = run_scenario(1)
    assert result["malicious"] == 89
    assert result["benign"] == 0
    assert result["attack_succeeded"]
    assert result["poisoned_queries"][0] == 1


def test_poisoning_at_query_3_matches_figure1_shape():
    _, result = run_scenario(3)
    assert result["malicious"] == 89
    assert result["benign"] <= 8  # 2 benign responses, possibly deduped
    assert result["attack_succeeded"]
    # Subsequent queries are served from the poisoned cache entry.
    assert result["cache_hits"] >= 20


def test_poisoning_at_query_12_still_succeeds():
    """The paper's crossover claim, on the wire: a success at query 12 still
    leaves the attacker with at least two-thirds of the (de-duplicated) pool."""
    _, result = run_scenario(12, benign_server_count=400)
    assert result["malicious"] == 89
    assert result["benign"] <= 44
    assert result["attack_succeeded"]


def test_poisoning_at_query_13_adds_too_many_benign_servers_analytically():
    """Past the crossover the paper's address arithmetic no longer yields a
    two-thirds majority (the packet-level run may still squeak past it when
    de-duplication removes a few benign addresses, which only strengthens
    the attack — the conservative bound is the analytic one)."""
    composition = analytic_pool_composition(13)
    assert composition.benign == 48
    assert not composition.attacker_has_two_thirds
    _, result = run_scenario(13, benign_server_count=400)
    assert result["malicious"] == 89
    assert result["benign"] <= 48


def test_poison_index_out_of_range_rejected():
    scenario = ChronosPoolAttackScenario(PoolAttackConfig(poison_at_query=30))
    with pytest.raises(ValueError):
        scenario.run_pool_generation()


def test_max_records_mitigation_alone_still_leaves_attacker_majority():
    """The record cap limits the flood to 4 addresses, but the poisoned
    entry's >24 h TTL still starves every later query from cache, so the
    tiny pool remains attacker-dominated — the cap alone is insufficient."""
    _, result = run_scenario(1, defenses=("address_cap",))
    assert result["malicious"] <= 4
    assert result["benign"] == 0
    assert result["attack_succeeded"]


def test_both_mitigations_block_single_poisoning():
    _, result = run_scenario(1, defenses=("ttl_discard", "address_cap"))
    assert result["malicious"] == 0
    assert not result["attack_succeeded"]


def test_ttl_mitigation_blocks_single_poisoning():
    _, result = run_scenario(1, defenses=("ttl_discard",))
    assert result["malicious"] == 0
    assert not result["attack_succeeded"]


def test_full_day_hijack_defeats_both_mitigations():
    """The §V residual attack: mitigations do not help against a 24 h hijack."""
    config = PoolAttackConfig(seed=5, poison_at_query=1,
                              defenses=("ttl_discard", "address_cap"),
                              hijack_duration=24 * 3600.0 + 1200.0, malicious_ttl=300)
    scenario = ChronosPoolAttackScenario(config)
    result = scenario.run_pool_generation()
    assert result["benign"] == 0
    assert result["attack_succeeded"]


def test_time_shift_requires_pool_generation_first():
    scenario = ChronosPoolAttackScenario(PoolAttackConfig())
    with pytest.raises(RuntimeError):
        scenario.run_time_shift(1.0, update_rounds=1)


def test_time_shift_succeeds_after_successful_pool_attack():
    scenario, result = run_scenario(2)
    assert result["attack_succeeded"]
    shift = scenario.run_time_shift(target_shift=600.0, update_rounds=6)
    assert shift["shift_achieved"]
    assert abs(shift["achieved_shift"] - 600.0) < 10.0


def test_time_shift_fails_without_pool_attack():
    scenario, result = run_scenario(None)
    shift = scenario.run_time_shift(target_shift=600.0, update_rounds=4)
    assert not shift["shift_achieved"]
    assert abs(shift["achieved_shift"]) < 1.0


@pytest.mark.parametrize("achieved, target, reached", [
    (300.0, 600.0, True), (-300.0, 600.0, True), (300.0, -600.0, True),
    (299.9, 600.0, False), (0.0, 0.0, False), (5.0, 0.0, False)])
def test_shift_reached_is_half_of_a_nonzero_target(achieved, target, reached):
    assert shift_reached(achieved, target) is reached


def test_zero_target_shift_is_never_achieved():
    scenario, result = run_scenario(2)
    assert result["attack_succeeded"]
    shift = scenario.run_time_shift(target_shift=0.0, update_rounds=4)
    assert abs(shift["achieved_shift"]) < 0.1
    assert shift["shift_achieved"] is False


def test_small_shift_on_benign_pool_also_filtered():
    scenario, _ = run_scenario(None, seed=8)
    shift = scenario.run_time_shift(target_shift=0.05, update_rounds=4)
    # 89 attacker servers exist but none are in the pool, so nothing moves.
    assert abs(shift["achieved_shift"]) < 0.02


# -- the baseline (traditional client) scenario -----------------------------------------------

def test_baseline_poisoned_client_follows_attacker():
    scenario = TraditionalClientAttackScenario(BaselineAttackConfig(seed=6))
    result = scenario.run()
    assert result["malicious_servers_used"] == result["servers_used"] == 4
    assert result["attack_succeeded"]


def test_baseline_unpoisoned_client_keeps_correct_time():
    scenario = TraditionalClientAttackScenario(
        BaselineAttackConfig(seed=6, poison_startup_lookup=False))
    result = scenario.run()
    assert result["malicious_servers_used"] == 0
    assert not result["attack_succeeded"]
    assert abs(result["achieved_shift"]) < 0.1


# -- one shift round under a given sample mix --------------------------------------------------

def mixed_offsets(sample_size, malicious, shift=10.0):
    """``malicious`` samples at ``shift``, the rest honest within 1 ms."""
    return [0.001 * ((i % 3) - 1) for i in range(sample_size - malicious)] + [shift] * malicious


def test_chronos_round_needs_two_thirds():
    config = ChronosConfig()
    minority = chronos_select(mixed_offsets(15, 5), config)
    assert minority.accepted and abs(minority.offset) < 0.01
    majority = mixed_offsets(15, 10)
    # Ten of fifteen own the trimmed mean; only the agreement checks stop
    # the round, and unchecked panic mode adopts the shift.
    assert not chronos_select(majority, config).accepted
    assert panic_select(majority, config).offset == pytest.approx(10.0)


@pytest.mark.parametrize("malicious, adopted", [(3, True), (1, False)])
def test_ntpd_round_falls_to_simple_majority(malicious, adopted):
    samples = [TimeSample(server=f"s{index}", offset=offset, delay=0.02, stratum=2,
                          root_dispersion=0.01, completed_at=0.0)
               for index, offset in enumerate(mixed_offsets(4, malicious))]
    result = ntpd_select(samples)
    assert result.succeeded
    assert (result.offset > 5.0) if adopted else (abs(result.offset) < 0.1)
