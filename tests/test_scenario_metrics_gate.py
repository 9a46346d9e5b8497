"""Differential gate: the exact metrics dict of every attack-scenario branch.

Each expected dict below was captured from ``run_scenario`` while the
registry adapters still copied each field out of a per-attack result
dataclass; the scenarios' own ``run`` methods now return these dicts.  The
comparison is exact: the same keys, values and value types (a bool that
turns into an int, or a float into an int, fails).  Several branches here
are covered by no pinned digest: the Chronos time-shift keys, frag with an
explicit ``trigger_count``, the zero-target runs and BGP with no hijack.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.experiments import run_scenario


#: name -> (scenario, seed, params, expected metrics).
CASES: dict[str, tuple[str, int, dict[str, Any], dict[str, Any]]] = {
    "chronos_shift": (
        "chronos_pool_attack", 3, {"benign_server_count": 120},
        {"achieved_shift": 600.0,
         "attack_succeeded": True,
         "attacker_fraction": 0.9175257731958762,
         "benign": 8,
         "cache_hits": 21,
         "defense_rejections": {},
         "malicious": 89,
         "panic_rounds": 1,
         "poisoned_queries": [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                              20, 21, 22, 23, 24],
         "pool_size": 97,
         "shift_achieved": True,
         "updates_run": 6}),
    "chronos_no_shift": (
        "chronos_pool_attack", 3, {"benign_server_count": 120, "run_time_shift": False},
        {"attack_succeeded": True,
         "attacker_fraction": 0.9175257731958762,
         "benign": 8,
         "cache_hits": 21,
         "defense_rejections": {},
         "malicious": 89,
         "poisoned_queries": [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                              20, 21, 22, 23, 24],
         "pool_size": 97}),
    "chronos_ttl_discard": (
        "chronos_pool_attack", 3, {"benign_server_count": 120, "defenses": ["ttl_discard"]},
        {"achieved_shift": 0.001524209976196289,
         "attack_succeeded": False,
         "attacker_fraction": 0.0,
         "benign": 8,
         "cache_hits": 21,
         "defense_rejections": {"ttl_discard": 22},
         "malicious": 0,
         "panic_rounds": 6,
         "poisoned_queries": [],
         "pool_size": 8,
         "shift_achieved": False,
         "updates_run": 6}),
    "chronos_target_0": (
        "chronos_pool_attack", 3, {"benign_server_count": 120, "target_shift": 0.0},
        {"achieved_shift": 0.0,
         "attack_succeeded": True,
         "attacker_fraction": 0.9175257731958762,
         "benign": 8,
         "cache_hits": 21,
         "defense_rejections": {},
         "malicious": 89,
         "panic_rounds": 0,
         "poisoned_queries": [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                              20, 21, 22, 23, 24],
         "pool_size": 97,
         "shift_achieved": False,
         "updates_run": 6}),
    "traditional": (
        "traditional_client_attack", 4, {},
        {"achieved_shift": 600.0,
         "attack_succeeded": True,
         "defense_rejections": {},
         "malicious_servers_used": 4,
         "polls_run": 5,
         "servers_used": 4}),
    "traditional_target_0": (
        "traditional_client_attack", 4, {"target_shift": 0.0},
        {"achieved_shift": 0.0,
         "attack_succeeded": False,
         "defense_rejections": {},
         "malicious_servers_used": 4,
         "polls_run": 5,
         "servers_used": 4}),
    "bgp": (
        "bgp_hijack", 5, {},
        {"attack_succeeded": True,
         "cache_poisoned": True,
         "cached_ttl": 172800,
         "defense_rejections": {},
         "hijacked_queries_answered": 1,
         "legitimate_queries_answered": 0,
         "malicious_records_cached": 89}),
    "bgp_no_hijack": (
        "bgp_hijack", 5, {"hijack_duration": 0.0},
        {"attack_succeeded": False,
         "cache_poisoned": False,
         "cached_ttl": 150,
         "defense_rejections": {},
         "hijacked_queries_answered": 0,
         "legitimate_queries_answered": 1,
         "malicious_records_cached": 0}),
    "frag": (
        "frag_poisoning", 6, {},
        {"attack_succeeded": True,
         "cache_poisoned": True,
         "defense_rejections": {},
         "planted_fragments": 16,
         "poisoned_records_cached": 10,
         "records_cached": 40}),
    "frag_trigger_1": (
        "frag_poisoning", 6, {"trigger_count": 1},
        {"attack_succeeded": True,
         "cache_poisoned": True,
         "defense_rejections": {},
         "planted_fragments": 16,
         "poisoned_records_cached": 10,
         "races_poisoned": 1,
         "races_run": 1,
         "records_cached": 40,
         "rrl_dropped": 0,
         "rrl_slipped": 0}),
    "frag_rrl_4_races": (
        "frag_poisoning", 6,
        {"trigger_count": 4, "trigger_interval": 0.25, "defenses": ["response_rate_limit"]},
        {"attack_succeeded": True,
         "cache_poisoned": True,
         "defense_rejections": {},
         "planted_fragments": 64,
         "poisoned_records_cached": 0,
         "races_poisoned": 2,
         "races_run": 4,
         "records_cached": 40,
         "rrl_dropped": 1,
         "rrl_slipped": 1}),
    "downgrade": (
        "downgrade", 7, {},
        {"attack_succeeded": True,
         "cache_poisoned": True,
         "defense_rejections": {},
         "downgraded": False,
         "encrypted_failures": 0,
         "planted_fragments": 16,
         "poisoned_records_cached": 10,
         "syns_dropped": 0,
         "syns_sent": 576}),
    "downgrade_strict": (
        "downgrade", 7, {"defenses": ["encrypted_transport"]},
        {"attack_succeeded": False,
         "cache_poisoned": False,
         "defense_rejections": {},
         "downgraded": False,
         "encrypted_failures": 1,
         "planted_fragments": 16,
         "poisoned_records_cached": 0,
         "syns_dropped": 321,
         "syns_sent": 576}),
    "downgrade_opportunistic": (
        "downgrade", 7, {"defenses": ["encrypted_transport_opportunistic"]},
        {"attack_succeeded": True,
         "cache_poisoned": True,
         "defense_rejections": {},
         "downgraded": True,
         "encrypted_failures": 1,
         "planted_fragments": 16,
         "poisoned_records_cached": 10,
         "syns_dropped": 321,
         "syns_sent": 576}),
}


def typed(value: Any) -> Any:
    """``value`` with every leaf tagged by its type, so ``==`` also compares types."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [typed(item) for item in value]
    return type(value).__name__, value


@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_metrics_match_the_captured_dict(case):
    scenario, seed, params, expected = CASES[case]
    assert typed(run_scenario(scenario, seed, params)) == typed(expected)

