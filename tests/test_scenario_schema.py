"""The scenario parameter schema is a cross-release contract.

A scenario's ``default_params()`` feeds its :func:`scenario_fingerprint`,
which is folded into every run-cache key.  The built-in scenarios derive
their schema from their config dataclasses, so the fingerprints are pinned:
a changed dataclass default, or a config field added to or dropped from
the accepted parameters, fails here before it can orphan a cache or move a
digest.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.attacks import (
    BaselineAttackConfig,
    BGPHijackConfig,
    BGPHijackScenario,
    ChronosPoolAttackScenario,
    DowngradeConfig,
    DowngradeScenario,
    FragPoisoningConfig,
    FragPoisoningScenario,
    PoolAttackConfig,
    TraditionalClientAttackScenario,
)
from repro.experiments import get_scenario, run_scenario, scenario_fingerprint

#: 16-hex prefixes of every registered scenario's fingerprint.
FINGERPRINTS = {
    "bgp_hijack": "8a2b836bb6b73971",
    "chronos_pool_attack": "24cb5d0f730a9414",
    "dns_measurement": "cf2c38bd1a153dd3",
    "downgrade": "ba608778265ec126",
    "frag_poisoning": "c67a6bfa2b717aaf",
    "population_sweep": "14309315b3d59385",
    "traditional_client_attack": "9214d8e933ee6b8d",
    "transport_overhead": "825a6fa80b97829b",
}

MEASUREMENTS = ("dns_measurement", "transport_overhead")

ATTACKS = ("bgp_hijack", "chronos_pool_attack", "downgrade", "frag_poisoning",
           "traditional_client_attack")

#: Config fields each scenario must keep rejecting as unknown params.
CONFIG_ONLY = {
    **{name: ("seed", "zone", "latency") for name in FINGERPRINTS},
    "chronos_pool_attack": ("seed", "zone", "latency", "benign_ttl",
                            "records_per_response", "chronos", "pool_policy"),
    "traditional_client_attack": ("seed", "zone", "latency", "benign_ttl",
                                  "records_per_response", "poll_interval"),
    "bgp_hijack": ("seed", "zone", "latency", "benign_ttl", "records_per_response"),
    "frag_poisoning": ("seed", "zone", "latency", "benign_ttl"),
    "downgrade": ("seed", "zone", "latency", "benign_ttl"),
    "population_sweep": ("seed", "zone", "latency", "explicit_starts", "policy",
                         "chronos", "target_pool_size"),
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_scenario_fingerprint_is_pinned(name):
    assert scenario_fingerprint(name)[:16] == FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(CONFIG_ONLY))
def test_config_only_fields_are_rejected_as_unknown_params(name):
    for key in CONFIG_ONLY[name]:
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            run_scenario(name, 1, {key: None})


@pytest.mark.parametrize("name", ATTACKS + MEASUREMENTS)
def test_schema_is_exactly_its_config_minus_seed(name):
    scenario = get_scenario(name)
    config_fields = {spec.name for spec in fields(scenario.config_class)}
    accepted = set(scenario.default_params()) | set(scenario.optional_params())
    assert accepted == config_fields - {"seed"}
    if name in MEASUREMENTS:
        assert scenario.optional_params() == ()
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            run_scenario(name, 1, {"faults": ()})


#: Each attack scenario's direct path: its class and config dataclass.
DIRECT = {
    "bgp_hijack": (BGPHijackScenario, BGPHijackConfig),
    "chronos_pool_attack": (ChronosPoolAttackScenario, PoolAttackConfig),
    "downgrade": (DowngradeScenario, DowngradeConfig),
    "frag_poisoning": (FragPoisoningScenario, FragPoisoningConfig),
    "traditional_client_attack": (TraditionalClientAttackScenario, BaselineAttackConfig),
}


@pytest.mark.parametrize("name", ATTACKS)
def test_direct_and_registry_paths_run_the_same_attack(name):
    scenario_class, config_class = DIRECT[name]
    assert scenario_class(config_class(seed=1)).run() == run_scenario(name, 1)


@pytest.mark.parametrize("name, params", [
    ("bgp_hijack", {"defenses": "dns_0x20"}),
    ("population_sweep", {"defenses": "address_cap"}),
    ("frag_poisoning", {"faults": {"kind": "loss", "rate": 0.1}}),
])
def test_a_bare_defense_name_or_fault_event_is_rejected(name, params):
    with pytest.raises(ValueError, match="(defenses|faults) must be a sequence"):
        run_scenario(name, 1, params)
