"""Differential gate for the wire a resolver serves from its cache.

A hit re-serves the entry's encoded answer section, split at the TTL fields
and joined by the remaining TTL
(:meth:`~repro.dns.message.DNSMessage.encode_cached_answer`).  Its bytes
must equal both the live codec's and the frozen reference codec's encoding
of ``query.make_response([r.with_ttl(ttl) for r in entry.records],
authoritative=False)``: for TTLs 0, 1, mid-life and ``MAX_TTL``; with and
without a 0x20 nonce, a cookie and ``recursion_desired``;
through the resolver's fresh and serve-stale paths; and after the entry is
replaced.
"""

from __future__ import annotations

import itertools
from dataclasses import fields, replace

import _reference_codec as ref
import pytest

from repro.defenses import DefenseStack
from repro.dns.cache import DNSCache
from repro.dns.message import DNSMessage
from repro.dns.records import MAX_TTL, RecordType, a_record
from repro.dns.resolver import STALE_ANSWER_TTL, RecursiveResolver
from repro.netsim.network import Host, Network
from repro.netsim.simulator import Simulator

ZONE = "pool.ntp.org"
#: The attack's cached answer: 89 A records for the question name.
FLOOD = [a_record(ZONE, f"198.51.{i // 200}.{i % 200}", 2 * 86400) for i in range(89)]
#: Owner names that are not the question's: ``b.example`` is written in
#: full at an offset a cookie moves, and the record after it points there.
MIXED = [a_record(ZONE, "10.0.0.1", 600), a_record("a." + ZONE, "10.0.0.2", 900),
         a_record("b.example", "10.0.0.3", 700), a_record("b.example", "10.0.0.4", 800),
         a_record(ZONE, "10.0.0.5", 650)]


def reference_wire(message: DNSMessage) -> bytes:
    """``message`` encoded by the frozen pre-rewrite codec."""
    def record(rr):
        return ref.ResourceRecord(rr.name, ref.RecordType(int(rr.rtype)), rr.ttl, rr.rdata,
                                  rr.rclass)
    state = {spec.name: getattr(message, spec.name) for spec in fields(DNSMessage)}
    state.update(
        question=ref.Question(message.question.name,
                              ref.RecordType(int(message.question.qtype)),
                              message.question.qclass),
        rcode=ref.ResponseCode(int(message.rcode)),
        **{section: tuple(record(rr) for rr in state[section])
           for section in ("answers", "authority", "additional")})
    return ref.DNSMessage(**state).encode()


def queries():
    """One query per combination of nonce, cookie and recursion_desired."""
    for txid, (nonce, cookie, desired) in enumerate(itertools.product(
            (None, 0b101101), (None, 0x0123456789ABCDEF), (True, False))):
        query = DNSMessage.query(txid + 1, ZONE, cookie=cookie, case_nonce=nonce)
        yield query if desired else replace(query, recursion_desired=False)


def expected_wire(query: DNSMessage, records, ttl: int) -> bytes:
    response = query.make_response([r.with_ttl(ttl) for r in records], authoritative=False)
    wire = response.encode()
    assert wire == reference_wire(response)
    return wire


@pytest.mark.parametrize("records", [FLOOD, MIXED], ids=["flood", "mixed_owners"])
def test_hit_wire_equals_both_codecs(records):
    cache = DNSCache()
    entry = cache.insert(ZONE, RecordType.A, records, now=0.0)
    mid_life = entry.remaining_ttl(now=entry.ttl / 2)
    assert 1 < mid_life < entry.ttl
    # One entry serves every variant, so a template built at one answer
    # offset (no cookie) is reused there and never served at another.
    for ttl, query in itertools.product((0, 1, mid_life, MAX_TTL), queries()):
        assert query.encode_cached_answer(entry, ttl) == expected_wire(query, records, ttl)
    assert sorted(entry.answer_templates) == [30, 38]  # without / with the cookie


def test_a_replaced_entry_serves_its_new_records():
    cache = DNSCache()
    query = DNSMessage.query(7, ZONE, case_nonce=0b11)
    old = cache.insert(ZONE, RecordType.A, FLOOD, now=0.0)
    assert query.encode_cached_answer(old, 60) == expected_wire(query, FLOOD, 60)
    new = cache.insert(ZONE, RecordType.A, MIXED, now=10.0)
    hit = cache.lookup(ZONE, RecordType.A, now=20.0)
    assert hit is new and not new.answer_templates
    assert query.encode_cached_answer(hit, 580) == expected_wire(query, MIXED, 580)


class Client(Host):
    """Records the payload of every datagram it receives."""

    def __init__(self, network, address):
        super().__init__(network, address)
        self.payloads = []

    def handle_datagram(self, datagram):
        self.payloads.append(datagram.payload)


def served(serve_stale: bool, inserted_at: float, asked_at: float, query: DNSMessage):
    """The bytes the resolver sends a client asking ``query`` at ``asked_at``
    about a MIXED entry cached at ``inserted_at``."""
    simulator = Simulator(seed=3)
    network = Network(simulator, latency=0.01)
    resolver = RecursiveResolver(network, "192.0.2.1", nameserver_map={ZONE: "192.0.2.53"},
                                 defenses=DefenseStack.from_spec(
                                     ("serve_stale",) if serve_stale else ()))
    client = Client(network, "192.0.2.100")
    resolver.cache.insert(ZONE, RecordType.A, MIXED, now=inserted_at)
    simulator.schedule_at(asked_at, lambda: client.send_udp(resolver.address, 40000, 53,
                                                            query.encode()))
    simulator.run(until=asked_at + 1.0)
    return client.payloads, resolver


@pytest.mark.parametrize("query", list(queries()), ids=lambda q: f"txid{q.transaction_id}")
def test_resolver_hit_and_stale_answers_equal_both_codecs(query):
    # Fresh: the query lands 100.01 s after insertion; 499 of 600 s are left.
    payloads, resolver = served(False, 0.0, 100.0, query)
    assert resolver.queries_answered_from_cache == 1
    assert payloads == [expected_wire(query, MIXED, 499)]
    # Stale: expired 400 s ago, inside the window, served at the clamped TTL.
    payloads, resolver = served(True, 0.0, 1000.0, query)
    assert resolver.queries_answered_from_cache == 0
    assert payloads == [expected_wire(query, MIXED, STALE_ANSWER_TTL)]
