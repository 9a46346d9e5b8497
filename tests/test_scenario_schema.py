"""The scenario parameter schema is a cross-release contract.

A scenario's ``default_params()`` feeds its :func:`scenario_fingerprint`,
which is folded into every run-cache key.  The attack adapters derive their
schema from their config dataclasses, so the fingerprints are pinned: a
changed dataclass default, or a config field leaking into the accepted
parameters, fails here before it can orphan a cache or move a digest.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.experiments import get_scenario, run_scenario, scenario_fingerprint
from repro.experiments.registry import optional_params

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

ATTACKS = ("bgp_hijack", "chronos_pool_attack", "downgrade", "frag_poisoning",
           "traditional_client_attack")

#: Config fields each scenario must keep rejecting as unknown params.
CONFIG_ONLY = {
    **{name: ("seed", "zone", "latency") for name in FINGERPRINTS},
    "chronos_pool_attack": ("seed", "zone", "latency", "benign_ttl",
                            "records_per_response", "chronos", "pool_policy",
                            "resolver_policy"),
    "traditional_client_attack": ("seed", "zone", "latency", "benign_ttl",
                                  "records_per_response", "poll_interval"),
    "bgp_hijack": ("seed", "zone", "latency", "benign_ttl", "records_per_response"),
    "frag_poisoning": ("seed", "zone", "latency", "benign_ttl"),
    "downgrade": ("seed", "zone", "latency", "benign_ttl"),
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_scenario_fingerprint_is_pinned(name):
    assert scenario_fingerprint(name)[:16] == FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(CONFIG_ONLY))
def test_config_only_fields_are_rejected_as_unknown_params(name):
    for key in CONFIG_ONLY[name]:
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            run_scenario(name, 1, {key: None})


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_schema_is_a_subset_of_its_config_plus_run_knobs(name):
    adapter = get_scenario(name)
    config_fields = {spec.name for spec in fields(adapter.config_class)}
    accepted = set(adapter.default_params()) | set(optional_params(adapter))
    # Exposed config fields are exactly the declared ones; everything else
    # accepted is a declared run-phase knob.
    assert accepted & config_fields == set(adapter.params) | set(adapter.optional)
    assert accepted - config_fields == set(adapter.run_params)
