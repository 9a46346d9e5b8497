"""Tests for the encrypted-transport downgrade attack scenario."""

from __future__ import annotations

from repro.attacks.downgrade import DowngradeConfig, DowngradeScenario
from repro.dns.records import RecordType
from repro.experiments import ExperimentRunner, run_scenario
from repro.experiments.pins import DOWNGRADE_SWEEP_DIGEST

#: The downgrade sweep's policy axis: plaintext, strict DoT, opportunistic DoT.
POLICY_PARAM_SETS = ({"defenses": ()},
                     {"defenses": ("encrypted_transport",)},
                     {"defenses": ("encrypted_transport_opportunistic",)})


def run_config(defenses=(), **overrides):
    scenario = DowngradeScenario(DowngradeConfig(seed=2, defenses=defenses,
                                                 **overrides))
    return scenario, scenario.run()


def test_plaintext_resolver_falls_to_the_fragmentation_race():
    scenario, result = run_config()
    assert result.attack_succeeded
    assert not result.downgraded            # nothing to downgrade from
    assert result.syns_dropped == 0         # no stream listeners to flood
    assert result.poisoned_records_cached > 0


def test_strict_dot_fails_closed_under_the_flood():
    scenario, result = run_config(defenses=("encrypted_transport",))
    assert not result.attack_succeeded
    assert not result.downgraded
    assert result.encrypted_failures == 1
    assert result.syns_dropped > 0          # the flood did land...
    assert result.poisoned_records_cached == 0  # ...but bought nothing
    # Fail-closed means fail: the lookup produced no answer at all.
    assert scenario.resolver.cache.peek(scenario.config.zone, RecordType.A) is None


def test_opportunistic_dot_downgrades_and_gets_poisoned():
    scenario, result = run_config(defenses=("encrypted_transport_opportunistic",))
    assert result.attack_succeeded
    assert result.downgraded
    assert result.encrypted_failures == 1
    assert result.poisoned_records_cached > 0


def test_without_the_flood_opportunistic_dot_stays_encrypted():
    # Zero flood bursts: the encrypted connection succeeds, the planted
    # fragments never match anything, and the attack fails.
    scenario, result = run_config(defenses=("encrypted_transport_opportunistic",),
                                  flood_bursts=0)
    assert not result.attack_succeeded
    assert not result.downgraded
    assert result.syns_sent == 0
    transport = scenario.resolver.upstream_transport
    assert transport.encrypted_queries == 1
    assert transport.encrypted_failures == 0


def test_downgrade_scenario_via_registry_is_deterministic():
    first = run_scenario("downgrade", 9,
                         {"defenses": ("encrypted_transport_opportunistic",)})
    second = run_scenario("downgrade", 9,
                          {"defenses": ("encrypted_transport_opportunistic",)})
    assert first == second
    assert first["attack_succeeded"] and first["downgraded"]
    assert first["syns_sent"] > 0 and first["syns_dropped"] > 0


def test_downgrade_sweep_digest_is_pinned():
    sweep = ExperimentRunner("downgrade", seeds=range(1, 9),
                             param_sets=POLICY_PARAM_SETS).run()
    assert sweep.digest() == DOWNGRADE_SWEEP_DIGEST


def test_downgrade_blocked_by_content_authentication():
    # Even after a successful downgrade, DNSSEC-style signing catches the
    # spliced records: policy defeats transport games only when the content
    # itself is unauthenticated.
    metrics = run_scenario("downgrade", 3, {
        "defenses": ("encrypted_transport_opportunistic", "response_signing")})
    assert metrics["downgraded"]
    assert not metrics["attack_succeeded"]
    assert metrics["defense_rejections"].get("response_signing", 0) >= 1
