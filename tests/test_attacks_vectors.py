"""Tests for attacker infrastructure and the two cache-poisoning vectors."""

from __future__ import annotations

import pytest

from repro.attacks.attacker import DEFAULT_MALICIOUS_TTL, build_attacker_infrastructure
from repro.attacks.bgp_hijack import BGPHijackPoisoner
from repro.attacks.frag_poisoning import (
    FragmentationAttackConditions,
    FragmentationPoisoner,
    fragmentation_attack_success_probability,
)
from repro.attacks.query_trigger import SMTP_PORT, SMTPTriggerServer
from repro.defenses import DefenseStack, FragmentedResponseRejection
from repro.dns.message import DNSMessage
from repro.dns.nameserver import PoolNTPNameserver
from repro.dns.records import RecordType, a_record
from repro.dns.resolver import RecursiveResolver
from repro.netsim.network import Network
from repro.netsim.packets import UDPDatagram
from repro.netsim.simulator import Simulator
from repro.ntp.server import MaliciousNTPServer


def build_world(nameserver_mtu=1500, records_per_response=4,
                attacker_servers=None, seed=17, defenses=None):
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency=0.01)
    pool_servers = [f"10.0.0.{i + 1}" for i in range(60)]
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=pool_servers,
                                   records_per_response=records_per_response,
                                   min_supported_mtu=nameserver_mtu)
    if nameserver_mtu < 1500:
        network.set_path_mtu(nameserver.address, nameserver_mtu)
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address},
                                 defenses=defenses)
    attacker = build_attacker_infrastructure(network, server_count=attacker_servers)
    return simulator, network, nameserver, resolver, attacker


# -- attacker infrastructure ------------------------------------------------------------

def test_default_attacker_has_89_ntp_servers():
    _, network, _, _, attacker = build_world()
    assert len(set(attacker.ntp_addresses)) == len(attacker.ntp_addresses) == 89
    assert all(isinstance(network.host_for(address), MaliciousNTPServer)
               for address in attacker.ntp_addresses)


def test_attacker_record_set_uses_high_ttl():
    _, _, _, _, attacker = build_world()
    records = attacker.malicious_answer_records("pool.ntp.org")
    assert len(records) == 89
    assert all(record.ttl == DEFAULT_MALICIOUS_TTL for record in records)
    assert DEFAULT_MALICIOUS_TTL > 24 * 3600


def test_attacker_time_shift_applies_to_all_servers():
    _, network, _, _, attacker = build_world(attacker_servers=5)
    built_before = network.host_for(attacker.ntp_addresses[0])
    attacker.set_time_shift(123.0)
    assert built_before.time_shift == 123.0
    assert all(network.host_for(address).time_shift == 123.0
               for address in attacker.ntp_addresses)


def test_capabilities_gate_bgp_hijack():
    simulator, network, nameserver, resolver, attacker = build_world()
    attacker.can_hijack_bgp = False
    hijacker = BGPHijackPoisoner(network, attacker, target_nameserver=nameserver.address,
                                 attacker_nameserver_address="198.51.100.200")
    with pytest.raises(PermissionError):
        hijacker.announce()


# -- BGP hijack vector -------------------------------------------------------------------

def test_bgp_hijack_poisons_resolver_cache():
    simulator, network, nameserver, resolver, attacker = build_world()
    hijacker = BGPHijackPoisoner(network, attacker, target_nameserver=nameserver.address)
    hijacker.announce()
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    assert attacker.cached_records(resolver, "pool.ntp.org")[1] > 0
    entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
    assert len(entry.records) == 89
    assert entry.ttl == DEFAULT_MALICIOUS_TTL
    assert nameserver.queries_received == 0  # the real server never saw the query


def test_bgp_hijack_window_open_then_closed():
    simulator, network, nameserver, resolver, attacker = build_world()
    hijacker = BGPHijackPoisoner(network, attacker, target_nameserver=nameserver.address)
    hijacker.schedule_window(start_in=10.0, duration=20.0)
    # Before the window: benign answer.
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    assert attacker.cached_records(resolver, "pool.ntp.org")[1] == 0
    # During the window (cache entry from before expires after 150 s, so
    # force another upstream query by evicting it).
    resolver.cache.evict("pool.ntp.org", RecordType.A)
    simulator.run(until=15.0)
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=20.0)
    assert network.host_for(nameserver.address) is hijacker.nameserver
    assert attacker.cached_records(resolver, "pool.ntp.org")[1] > 0
    # After the window the hijack is withdrawn, and traffic to the
    # nameserver address reaches the legitimate nameserver host again.
    simulator.run(until=40.0)
    assert network.host_for(nameserver.address) is nameserver


def test_bgp_hijack_without_poisoning_leaves_cache_clean():
    simulator, network, nameserver, resolver, attacker = build_world()
    BGPHijackPoisoner(network, attacker, target_nameserver=nameserver.address)
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    assert attacker.cached_records(resolver, "pool.ntp.org")[1] == 0


# -- fragmentation vector ------------------------------------------------------------------

def test_fragmentation_conditions_feasibility_rules():
    base = {"nameserver_min_mtu": 548, "nameserver_has_dnssec": False,
            "resolver_accepts_fragments": True, "response_size": 1200}
    assert FragmentationAttackConditions(**base).feasible
    assert not FragmentationAttackConditions(**{**base, "resolver_accepts_fragments": False}).feasible
    assert not FragmentationAttackConditions(**{**base, "response_size": 400}).feasible
    signed = FragmentationAttackConditions(**{**base, "nameserver_has_dnssec": True,
                                              "resolver_validates_dnssec": True})
    assert not signed.feasible
    unsupported = FragmentationAttackConditions(**{**base, "nameserver_min_mtu": 1500})
    assert not unsupported.feasible


def test_fragmentation_success_probability_model():
    feasible = FragmentationAttackConditions(nameserver_min_mtu=548, nameserver_has_dnssec=False,
                                             resolver_accepts_fragments=True, response_size=1200)
    infeasible = FragmentationAttackConditions(nameserver_min_mtu=1500, nameserver_has_dnssec=False,
                                               resolver_accepts_fragments=True, response_size=1200)
    assert fragmentation_attack_success_probability(infeasible) == 0.0
    assert fragmentation_attack_success_probability(feasible, ipid_predictable=True) == 1.0
    randomised = fragmentation_attack_success_probability(feasible, ipid_predictable=False,
                                                          ipid_window=16)
    assert 0.0 < randomised < 0.001
    more_attempts = fragmentation_attack_success_probability(feasible, ipid_predictable=False,
                                                             ipid_window=16, attempts=100)
    assert more_attempts > randomised


def frag_world(checksum_oracle=True, defenses=None):
    # A nameserver that fragments (548-byte path MTU) and returns enough
    # records (40) that the trailing fragments carry answer records.
    return build_world(nameserver_mtu=548, records_per_response=40,
                       defenses=defenses), checksum_oracle


def test_fragmentation_poisoning_end_to_end():
    (simulator, network, nameserver, resolver, attacker), _ = frag_world()
    poisoner = FragmentationPoisoner(network, attacker, resolver, nameserver,
                                     checksum_oracle=True)
    expected = DNSMessage.query(0, "pool.ntp.org").make_response(
        [a_record("pool.ntp.org", f"10.0.0.{i + 1}", 150) for i in range(40)])
    report = poisoner.plant_fragments(expected)
    assert report.planted_fragments > 0
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    assert poisoner.verify_poisoning()
    entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
    attacker_addresses = set(attacker.ntp_addresses)
    poisoned_records = [r for r in entry.records if r.rdata in attacker_addresses]
    assert poisoned_records, "attacker addresses must appear in the cached record set"
    # Records that lie entirely inside the spoofed fragment carry the
    # attacker's TTL; at most one record straddles the fragment boundary and
    # ends up with hybrid bytes.
    with_attacker_ttl = sum(1 for r in poisoned_records if r.ttl == attacker.malicious_ttl)
    assert with_attacker_ttl >= len(poisoned_records) - 1
    assert with_attacker_ttl >= 1
    assert entry.poisoned  # cached from the spliced (spoofed-fragment) response


def test_fragmentation_poisoning_fails_without_checksum_fix():
    (simulator, network, nameserver, resolver, attacker), _ = frag_world()
    poisoner = FragmentationPoisoner(network, attacker, resolver, nameserver,
                                     checksum_oracle=False)
    expected = DNSMessage.query(0, "pool.ntp.org").make_response(
        [a_record("pool.ntp.org", f"10.0.0.{i + 1}", 150) for i in range(40)])
    poisoner.plant_fragments(expected)
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=10.0)
    assert not poisoner.verify_poisoning()


def test_fragmentation_poisoning_fails_when_resolver_rejects_fragments():
    stack = DefenseStack([FragmentedResponseRejection()])
    (simulator, network, nameserver, resolver, attacker), _ = frag_world(defenses=stack)
    poisoner = FragmentationPoisoner(network, attacker, resolver, nameserver,
                                     checksum_oracle=True)
    expected = DNSMessage.query(0, "pool.ntp.org").make_response(
        [a_record("pool.ntp.org", f"10.0.0.{i + 1}", 150) for i in range(40)])
    poisoner.plant_fragments(expected)
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=10.0)
    assert not poisoner.verify_poisoning()
    assert resolver.defenses.rejections == {"fragment_rejection": 1}


def test_fragmentation_poisoning_misses_with_wrong_ipid():
    (simulator, network, nameserver, resolver, attacker), _ = frag_world()
    poisoner = FragmentationPoisoner(network, attacker, resolver, nameserver,
                                     checksum_oracle=True, ipid_window=4)
    expected = DNSMessage.query(0, "pool.ntp.org").make_response(
        [a_record("pool.ntp.org", f"10.0.0.{i + 1}", 150) for i in range(40)])
    poisoner.plant_fragments(expected, starting_ipid=40000)  # far from the real counter
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=10.0)
    assert not poisoner.verify_poisoning()


def test_unfragmented_response_cannot_be_poisoned_by_fragments():
    (simulator, network, nameserver, resolver, attacker) = build_world(
        nameserver_mtu=1500, records_per_response=4)
    poisoner = FragmentationPoisoner(network, attacker, resolver, nameserver,
                                     checksum_oracle=True)
    expected = DNSMessage.query(0, "pool.ntp.org").make_response(
        [a_record("pool.ntp.org", f"10.0.0.{i + 1}", 150) for i in range(4)])
    poisoner.plant_fragments(expected)
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    assert not poisoner.verify_poisoning()


# -- query triggering ------------------------------------------------------------------------

def test_smtp_trigger_causes_resolver_query():
    simulator, network, nameserver, resolver, attacker = build_world()
    smtp = SMTPTriggerServer(network, "192.0.2.25", resolver_address=resolver.address)
    # The attacker mails the SMTP server a message naming the target domain.
    network.send_datagram(UDPDatagram(src_ip="198.51.100.250", dst_ip=smtp.address,
                                      src_port=40000, dst_port=SMTP_PORT,
                                      payload=b"pool.ntp.org"))
    simulator.run(until=5.0)
    assert nameserver.queries_received == 1
    assert smtp.triggers[0].name == "pool.ntp.org"
