"""Tests for Chronos pool generation and the full Chronos client (benign runs)."""

from __future__ import annotations

import pytest

from repro.core.chronos_client import ChronosClient, UpdateOutcome
from repro.core.pool_generation import PoolComposition, PoolGenerationPolicy
from repro.core.selection import ChronosConfig
from repro.defenses import DefenseStack
from repro.dns.nameserver import POOL_NTP_ORG_TTL, PoolNTPNameserver
from repro.dns.resolver import RecursiveResolver
from repro.netsim.addresses import AddressAllocator
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.ntp.server import NTPServer


def build_world(server_count=100, policy=None, chronos_config=None, seed=9,
                records_per_response=4, ttl=POOL_NTP_ORG_TTL, defenses=()):
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency=0.01)
    allocator = AddressAllocator("10.50.0.0/16")
    servers = [NTPServer(network, allocator.allocate()) for _ in range(server_count)]
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[s.address for s in servers],
                                   records_per_response=records_per_response, ttl=ttl)
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address})
    client = ChronosClient(network, "192.0.2.100", resolver_address=resolver.address,
                           config=chronos_config or ChronosConfig(),
                           pool_policy=policy, defenses=DefenseStack.from_spec(defenses))
    return simulator, network, nameserver, resolver, client


# -- policy validation --------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        PoolGenerationPolicy(query_count=0)
    with pytest.raises(ValueError):
        PoolGenerationPolicy(query_interval=0.0)


def test_pool_composition_two_thirds_boundary():
    assert PoolComposition(benign=44, malicious=89).attacker_has_two_thirds
    assert PoolComposition(benign=44, malicious=88).attacker_has_two_thirds
    assert not PoolComposition(benign=48, malicious=89).attacker_has_two_thirds
    assert not PoolComposition(benign=0, malicious=0).attacker_has_two_thirds
    assert PoolComposition(benign=1, malicious=2).attacker_has_two_thirds


def test_pool_composition_fraction():
    composition = PoolComposition(benign=44, malicious=89)
    assert composition.total == 133
    assert composition.malicious_fraction == pytest.approx(89 / 133)


# -- pool generation -----------------------------------------------------------------------

def test_pool_generation_issues_24_hourly_queries():
    simulator, _, nameserver, _, client = build_world()
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    assert len(pools) == 1
    pool = pools[0]
    assert len(pool.queries) == 24
    assert nameserver.queries_received == 24
    # queries are an hour apart
    gaps = [pool.queries[i + 1].issued_at - pool.queries[i].issued_at
            for i in range(len(pool.queries) - 1)]
    assert all(abs(gap - 3600.0) < 5.0 for gap in gaps)
    assert pool.completed_at - pool.started_at >= 23 * 3600


def test_pool_size_approaches_96_with_large_zone():
    simulator, _, _, _, client = build_world(server_count=400)
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    pool = pools[0]
    # 24 responses x 4 addresses, minus the occasional duplicate
    assert 80 <= pool.size <= 96


def test_pool_without_dedupe_counts_every_address():
    policy = PoolGenerationPolicy(dedupe=False)
    simulator, _, _, _, client = build_world(server_count=400, policy=policy)
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    assert pools[0].size == 96


def test_pool_generation_with_small_zone_dedupes_hard():
    simulator, _, _, _, client = build_world(server_count=10)
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    assert pools[0].size <= 10


def test_address_cap_defense_limits_each_response():
    simulator, _, _, _, client = build_world(server_count=400, records_per_response=8,
                                             defenses=["address_cap"])
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    pool = pools[0]
    assert all(len(record.addresses) == 8 for record in pool.queries)
    assert all(record.accepted_addresses == record.addresses[:4] for record in pool.queries)
    assert pool.size <= 96


def test_high_ttl_filter_rejects_responses():
    # A two-day zone TTL: even the cached answers of the last hourly query
    # still carry more than the 3,600 s the defense allows.
    simulator, _, _, _, client = build_world(ttl=2 * 86400, defenses=["ttl_discard"])
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    pool = pools[0]
    assert pool.size == 0
    assert all(record.addresses for record in pool.queries)
    assert all(record.rejected_by == "ttl_discard" for record in pool.queries if record.addresses)


def test_query_records_capture_ttl_and_addresses():
    simulator, _, _, _, client = build_world()
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    record = pools[0].queries[0]
    assert record.min_ttl == 150
    assert len(record.addresses) == 4
    assert record.accepted_addresses == record.addresses
    assert not record.failed


def test_generation_cannot_run_twice_concurrently():
    simulator, _, _, _, client = build_world()
    client.pool_generator.generate(lambda pool: None)
    with pytest.raises(RuntimeError):
        client.pool_generator.generate(lambda pool: None)


def test_generation_with_unresolvable_zone_marks_failures():
    simulator = Simulator(seed=3)
    network = Network(simulator)
    resolver = RecursiveResolver(network, "192.0.2.1", nameserver_map={})
    client = ChronosClient(network, "192.0.2.100", resolver_address=resolver.address,
                           pool_policy=PoolGenerationPolicy(query_count=3,
                                                            query_interval=10.0))
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=200.0)
    assert len(pools) == 1
    assert pools[0].size == 0
    assert all(record.failed for record in pools[0].queries)


def test_composition_against_known_malicious_set():
    simulator, _, _, _, client = build_world(server_count=50)
    pools = []
    client.pool_generator.generate(pools.append)
    simulator.run(until=24 * 3600 + 300)
    pool = pools[0]
    composition = pool.composition(["203.0.113.1"])  # not in the pool
    assert composition.malicious == 0
    assert composition.benign == pool.size
    composition2 = pool.composition(pool.servers[:5])
    assert composition2.malicious == 5


# -- the full client, benign operation ---------------------------------------------------------

def test_chronos_client_start_generates_pool_then_updates():
    simulator, _, _, _, client = build_world(server_count=300)
    client.start()
    simulator.run(until=24 * 3600 + 4 * client.config.poll_interval)
    assert client.pool is not None
    assert client.pool.size > 50
    assert len(client.update_history) >= 2
    applied = [r for r in client.update_history if r.outcome is UpdateOutcome.APPLIED]
    assert applied, "at least one update must have been applied"
    assert abs(client.clock_error) < 0.1


def test_chronos_client_corrects_initial_clock_error():
    simulator, network, _, _, client = build_world(server_count=300, seed=21)
    client.clock.adjust(0.05)
    client.start()
    simulator.run(until=24 * 3600 + 4 * client.config.poll_interval)
    assert abs(client.clock_error) < 0.02


def test_chronos_client_requires_pool_before_updates():
    simulator, _, _, _, client = build_world()
    with pytest.raises(RuntimeError):
        client.begin_updates()


def test_chronos_client_start_is_idempotent():
    simulator, _, nameserver, _, client = build_world()
    client.start()
    client.start()
    simulator.run(until=7200.0)
    # only one generation sequence is running: at most 3 queries in 2 hours
    assert nameserver.queries_received <= 3


def test_chronos_client_samples_subset_of_pool():
    simulator, _, _, _, client = build_world(server_count=300)
    client.start()
    simulator.run(until=24 * 3600 + 2 * client.config.poll_interval)
    record = client.update_history[0]
    assert len(record.sampled_servers) == client.config.sample_size
    assert set(record.sampled_servers) <= set(client.pool.servers)
