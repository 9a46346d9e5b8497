"""E7: both poisoning vectors produce the same pool compromise; MTU sweep."""

from __future__ import annotations

from conftest import emit

from repro.analysis.poisoning_vectors import VectorFeasibilityRow, mtu_sweep
from repro.attacks import build_attacker_infrastructure
from repro.attacks.bgp_hijack import BGPHijackPoisoner
from repro.attacks.frag_poisoning import FragmentationPoisoner
from repro.dns.message import DNSMessage
from repro.dns.nameserver import PoolNTPNameserver
from repro.dns.records import RecordType, a_record
from repro.dns.resolver import RecursiveResolver
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator


def run_both_vectors():
    """Run the BGP-hijack vector and the fragmentation vector mechanically."""
    outcomes = {}

    # Vector 1: BGP hijack.
    simulator = Simulator(seed=3)
    network = Network(simulator, latency=0.01)
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[f"10.0.0.{i + 1}" for i in range(60)])
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address})
    attacker = build_attacker_infrastructure(network)
    hijacker = BGPHijackPoisoner(network, attacker, target_nameserver=nameserver.address)
    hijacker.announce()
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
    outcomes["bgp"] = {
        "poisoned": attacker.cached_records(resolver, "pool.ntp.org")[1] > 0,
        "records": len(entry.records) if entry else 0,
        "ttl": entry.ttl if entry else 0,
    }

    # Vector 2: defragmentation-cache injection against a fragmenting server.
    simulator = Simulator(seed=3)
    network = Network(simulator, latency=0.01)
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[f"10.0.0.{i + 1}" for i in range(60)],
                                   records_per_response=40, min_supported_mtu=548)
    network.set_path_mtu(nameserver.address, 548)
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address})
    attacker = build_attacker_infrastructure(network)
    poisoner = FragmentationPoisoner(network, attacker, resolver, nameserver,
                                     checksum_oracle=True)
    expected = DNSMessage.query(0, "pool.ntp.org").make_response(
        [a_record("pool.ntp.org", f"10.0.0.{i + 1}", 150) for i in range(40)])
    poisoner.plant_fragments(expected)
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
    attacker_addresses = set(attacker.ntp_addresses)
    poisoned_count = sum(1 for record in (entry.records if entry else [])
                         if record.rdata in attacker_addresses)
    outcomes["fragmentation"] = {
        "poisoned": poisoner.verify_poisoning(),
        "records": poisoned_count,
        "ttl": max((record.ttl for record in entry.records), default=0) if entry else 0,
    }
    return outcomes


def test_poisoning_vectors(benchmark):
    outcomes = benchmark.pedantic(run_both_vectors, rounds=1, iterations=1)
    sweep = mtu_sweep()
    lines = ["vector        poisoned  attacker records in cache   max TTL cached"]
    lines.extend(f"{vector:<13} {str(data['poisoned']):<9} {data['records']:<27} "
                 f"{data['ttl']}" for vector, data in outcomes.items())
    lines.append("")
    lines.append("-- fragmentation-vector feasibility vs nameserver MTU --")
    lines.append(VectorFeasibilityRow.header())
    lines += [row.formatted() for row in sweep]
    lines.append("(paper: the choice of poisoning vector is immaterial to the Chronos attack)")
    emit("E7 — poisoning vectors: BGP hijack vs fragmentation injection", lines)
    assert outcomes["bgp"]["poisoned"]
    assert outcomes["fragmentation"]["poisoned"]
    assert outcomes["bgp"]["ttl"] > 24 * 3600
