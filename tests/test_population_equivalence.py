"""The fleet-vs-packet equivalence gate.

The acceptance bar for the population layer: on overlap populations small
enough for the packet simulator (≤64 clients), the vectorized engine and the
packet-level testbed must be digest-identical client for client, seed for
seed, with and without numpy.  The gate population spans every poison index
(k = 1..24 plus unpoisoned clients), and the §V mitigation and TTL-expiry
regimes are checked as variants.
"""

from __future__ import annotations

import pytest

from repro.experiments.pins import FLEET_GATE_DIGEST as GATE_DIGEST
from repro.population.equivalence import (
    GATE_CLIENTS,
    equivalence_digests,
    expected_gate_poison_query,
    fleet_gate_records,
    packet_gate_records,
    population_digest,
)
from repro.population.rng import BACKEND_ENV, numpy_or_none

numpy = numpy_or_none()

GATE_SEEDS = tuple(range(1, 9))


def test_gate_population_spans_every_poison_index():
    records = fleet_gate_records(1, backend="python")
    assert len(records) == GATE_CLIENTS
    ks = [record["poison_at_query"] for record in records]
    # The construction is analytic: k = 26 - i for the mid clients, k = 1
    # for the client starting at the poisoning instant, four never poisoned.
    assert ks == [expected_gate_poison_query(i) for i in range(GATE_CLIENTS)]
    assert set(ks) == {None} | set(range(1, 25))
    # The k = 1 client is the deterministic-shift regime: no benign servers,
    # panic on the first round moves the clock by exactly the target.
    (pure,) = [r for r in records if r["poison_at_query"] == 1]
    assert pure["benign"] == 0
    assert pure["achieved_shift"] == 600.0
    assert pure["panic_rounds"] == 1
    assert pure["updates_run"] == 6
    assert pure["shift_achieved"] is True


def test_equivalence_gate_eight_seeds_python_backend():
    packet, fleet = equivalence_digests(GATE_SEEDS, backend="python")
    assert packet == fleet
    assert fleet == GATE_DIGEST


@pytest.mark.skipif(numpy is None, reason="numpy not installed")
def test_numpy_backend_reproduces_the_pinned_gate_digest():
    # No packet re-run needed: the fleet side alone must reproduce the same
    # per-client records bit for bit on the vectorized path.
    records = []
    for seed in GATE_SEEDS:
        records.extend(fleet_gate_records(seed, backend="numpy"))
    packet_equivalent = []
    for seed in GATE_SEEDS:
        packet_equivalent.extend(fleet_gate_records(seed, backend="python"))
    assert records == packet_equivalent
    assert population_digest(records) == GATE_DIGEST


def test_backend_env_variable_controls_the_fleet_path(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "python")
    via_env = fleet_gate_records(3)
    assert via_env == fleet_gate_records(3, backend="python")


@pytest.mark.parametrize("variant", [
    {"malicious_ttl": 9000},             # entry expires after 2 cache hits
    {"max_addresses_per_response": 64},  # §V response-size cap
    {"max_accepted_ttl": 3600},          # §V TTL discard
])
def test_equivalence_holds_under_mitigations_and_expiry(variant):
    packet, fleet = equivalence_digests([1], backend="python", **variant)
    assert packet == fleet


def test_expiry_variant_matches_the_closed_form():
    records = fleet_gate_records(1, malicious_ttl=9000, backend="python")
    (k3,) = [r for r in records if r["poison_at_query"] == 3]
    # k = 3: two pre-poison queries, the poisoned query plus 2 cache hits
    # before expiry, then 19 fresh benign queries.
    assert k3["malicious"] == 89 * 3
    assert k3["benign"] == (2 + 19) * 4
    assert k3["cache_hits"] == 2
    assert k3["poisoned_queries"] == [3, 4, 5]


def test_ttl_discard_defeats_the_attack_on_both_paths():
    fleet = fleet_gate_records(1, max_accepted_ttl=3600, backend="python")
    packet = packet_gate_records(1, fleet, max_accepted_ttl=3600)
    assert fleet == packet
    assert all(r["malicious"] == 0 for r in fleet)
    assert not any(r["attack_succeeded"] for r in fleet)
