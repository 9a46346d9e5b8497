"""Integration-style tests for the authoritative nameservers and the resolver."""

from __future__ import annotations

from _counters import count, observed_simulator

from repro import obs
from repro.defenses import DefenseStack
from repro.dns.message import DNSMessage
from repro.dns.nameserver import (
    DNS_PORT,
    POOL_NTP_ORG_TTL,
    AuthoritativeNameserver,
    PoolNTPNameserver,
)
from repro.dns.records import RecordType
from repro.dns.resolver import DNSStub, RecursiveResolver
from repro.netsim.network import Host, Network
from repro.netsim.packets import UDPDatagram
from repro.netsim.simulator import Simulator


class StubHost(Host):
    """A client host exposing only a DNS stub (for lookup tests)."""

    def __init__(self, network, address, resolver_address):
        super().__init__(network, address)
        self.dns = DNSStub(self, resolver_address)

    def handle_datagram(self, datagram):
        self.dns.handle_datagram(datagram)


def build_world(records_per_response=4, server_count=20, seed=5,
                defenses=None, ttl=POOL_NTP_ORG_TTL):
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency=0.01)
    pool_servers = [f"10.0.0.{i + 1}" for i in range(server_count)]
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=pool_servers,
                                   records_per_response=records_per_response, ttl=ttl)
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address},
                                 defenses=defenses)
    client = StubHost(network, "192.0.2.100", resolver.address)
    return simulator, network, nameserver, resolver, client


# -- nameserver behaviour ----------------------------------------------------------

def test_pool_nameserver_returns_four_records():
    simulator, _, nameserver, resolver, client = build_world()
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=5.0)
    assert len(answers) == 1
    assert len(answers[0]) == 4
    assert nameserver.queries_received == 1


def test_pool_nameserver_rotates_answers():
    simulator, _, _, _, client = build_world(server_count=50)
    results = []
    client.dns.lookup("pool.ntp.org", results.append)
    simulator.run(until=5.0)
    # force a second upstream query by evicting the resolver cache: use a
    # fresh world with a different seed instead (rotation is per-query).
    simulator2, _, _, _, client2 = build_world(server_count=50, seed=6)
    client2.dns.lookup("pool.ntp.org", results.append)
    simulator2.run(until=5.0)
    assert results[0] != results[1]


def test_pool_nameserver_matches_subpool_names():
    simulator, _, _, resolver, client = build_world()
    resolver.nameserver_map["2.pool.ntp.org"] = "192.0.2.53"
    answers = []
    client.dns.lookup("2.pool.ntp.org", answers.append)
    simulator.run(until=5.0)
    assert len(answers[0]) == 4


def test_unknown_name_yields_empty_answer():
    simulator, _, _, resolver, client = build_world()
    resolver.nameserver_map["example.org"] = "192.0.2.53"
    answers = []
    client.dns.lookup("nonexistent.example.org", answers.append)
    simulator.run(until=10.0)
    assert answers == [[]]


def test_static_authoritative_server_answers_from_zone():
    simulator = Simulator(seed=1)
    network = Network(simulator)
    ns = AuthoritativeNameserver(network, "192.0.2.10",
                                 zone={"fixed.example": ["203.0.113.5"]}, ttl=600)
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"fixed.example": ns.address})
    client = StubHost(network, "192.0.2.100", resolver.address)
    answers = []
    client.dns.lookup("fixed.example", answers.append)
    simulator.run(until=5.0)
    assert answers == [["203.0.113.5"]]


# -- resolver behaviour -------------------------------------------------------------

def test_second_lookup_within_ttl_served_from_cache():
    simulator, _, nameserver, resolver, client = build_world()
    first, second = [], []
    client.dns.lookup("pool.ntp.org", first.append)
    simulator.run(until=5.0)
    client.dns.lookup("pool.ntp.org", second.append)
    simulator.run(until=10.0)
    assert nameserver.queries_received == 1
    assert resolver.queries_answered_from_cache == 1
    assert second[0] == first[0]


def test_lookup_after_ttl_expiry_goes_upstream_again():
    simulator, _, nameserver, resolver, client = build_world()
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=5.0)
    # pool.ntp.org TTL is 150 s; one hour later the entry is long gone.
    simulator.run(until=3600.0)
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=3610.0)
    assert nameserver.queries_received == 2


def test_cached_records_report_remaining_ttl():
    simulator, _, _, resolver, client = build_world()
    messages = []
    client.dns.lookup_message("pool.ntp.org", messages.append)
    simulator.run(until=5.0)
    simulator.run(until=100.0)
    client.dns.lookup_message("pool.ntp.org", messages.append)
    simulator.run(until=105.0)
    assert messages[0].answers[0].ttl == 150
    assert messages[1].answers[0].ttl <= 51  # ~50 seconds remaining


def test_resolver_rejects_response_from_wrong_source():
    simulator, network, nameserver, resolver, client = build_world()
    client.dns.lookup("pool.ntp.org", lambda a: None)
    # Off-path attacker blindly spams a response from its own address with a
    # guessed (wrong) transaction id: it must be rejected.
    bogus = DNSMessage.query(0x4242, "pool.ntp.org").make_response([])
    network.send_datagram(UDPDatagram("198.51.100.9", resolver.address, DNS_PORT, 33333,
                                      bogus.encode()))
    simulator.run(until=5.0)
    assert resolver.responses_rejected >= 1
    assert resolver.cache.peek("pool.ntp.org", RecordType.A) is not None  # benign answer cached


def test_malformed_datagrams_are_dropped_and_counted():
    with obs.capture() as ob:
        simulator, network, nameserver, resolver, client = build_world()
        answers = []
        client.dns.lookup("pool.ntp.org", answers.append)
        garbage = DNSMessage.query(7, "pool.ntp.org").encode()[:14] + b"\xff\xfe"
        # Three identical copies count three times: the codec memo must
        # never store a failure.
        for _ in range(3):
            for target in (resolver.address, nameserver.address):
                network.send_datagram(UDPDatagram("198.51.100.9", target, 33333, DNS_PORT,
                                                  garbage))
            network.send_datagram(UDPDatagram("198.51.100.9", client.address, DNS_PORT, 33333,
                                              garbage))
        simulator.run(until=5.0)
        snapshot = ob.metrics.snapshot()
    assert len(answers) == 1 and len(answers[0]) == 4  # the real lookup still resolves
    for site in ("resolver", "nameserver", "stub"):
        assert snapshot.counter("dns.malformed", site=site) == 3
    assert snapshot.counter_total("dns.malformed") == 9


def test_resolver_timeout_reports_failure_to_client():
    simulator = observed_simulator(2)
    network = Network(simulator)
    # nameserver address points at nothing
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": "192.0.2.250"})
    client = StubHost(network, "192.0.2.100", resolver.address)
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=30.0)
    assert answers == [[]]
    assert count(simulator, "dns.query_timeouts") == 1


def test_resolver_servfail_for_unknown_zone():
    simulator, _, _, _, client = build_world()
    answers = []
    client.dns.lookup("unknown.zone.example", answers.append)
    simulator.run(until=5.0)
    assert answers == [[]]


def test_response_record_cap_defense_caps_cache():
    stack = DefenseStack.from_spec(("response_record_cap",))
    simulator, _, _, resolver, client = build_world(records_per_response=8, defenses=stack)
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=5.0)
    assert len(answers[0]) == 4
    entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
    assert len(entry.records) == 4


def test_cache_ttl_cap_caps_entry_lifetime():
    stack = DefenseStack.from_spec(("cache_ttl_cap",))
    simulator, _, nameserver, resolver, client = build_world(defenses=stack, ttl=7200)
    answers = []
    client.dns.lookup_message("pool.ntp.org", answers.append)
    simulator.run(until=5.0)
    assert answers[0].answers
    assert all(record.ttl == 3600 for record in answers[0].answers)  # zone TTL is 7,200 s
    simulator.run(until=3700.0)
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=3705.0)
    assert nameserver.queries_received == 2  # capped entry expired after 3,600 s


def test_trigger_lookup_populates_cache_without_client():
    simulator, _, nameserver, resolver, _ = build_world()
    resolver.trigger_lookup("pool.ntp.org")
    simulator.run(until=5.0)
    assert nameserver.queries_received == 1
    assert resolver.cache.peek("pool.ntp.org", RecordType.A) is not None


def test_stub_timeout_returns_empty_answer():
    simulator = Simulator(seed=4)
    network = Network(simulator)
    client = StubHost(network, "192.0.2.100", "192.0.2.240")  # resolver does not exist
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=30.0)
    assert answers == [[]]  # the one lookup failed, reported once
