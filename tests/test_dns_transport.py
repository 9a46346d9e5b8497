"""Tests for DNS stream transports (TCP/DoT/DoH), TC truncation and fallback."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from _counters import count

from repro import obs
from repro.defenses.transport import (
    EncryptedTransport,
    EncryptedTransportDoH,
    OpportunisticEncryptedTransport,
)
from repro.dns.message import DNSMessage
from repro.dns.records import RecordType
from repro.dns.transport import (
    DOH_PORT,
    DNSFrameDecoder,
    DNSServerTransport,
    DoHMessageDecoder,
    EncryptedTransportPolicy,
    doh_request,
    doh_response,
    frame_dns,
)
from repro.dns.wire import WireFormatError
from repro.experiments import TestbedConfig, build_testbed
from repro.netsim.transport import SecureChannel

ZONE = "pool.ntp.org"


def build(transports=(), udp_limit=None, defenses=(), cert_key=None, latency=None,
          **overrides):
    overrides.setdefault("records_per_response", 40)
    config = TestbedConfig(
        seed=5,
        benign_server_count=50,
        nameserver_transports=tuple(transports),
        nameserver_udp_payload_limit=udp_limit,
        transport_cert_key=cert_key,
        defenses=defenses,
        with_attacker=False,
        **overrides,
    )
    testbed = build_testbed(config)
    if latency is not None:
        # A slower world than the testbed's fixed one; no packet is out yet.
        testbed.network.latency = latency
    return testbed


def cached_records(testbed):
    entry = testbed.resolver.cache.peek(ZONE, RecordType.A)
    return list(entry.records) if entry is not None else None


# -- framing --------------------------------------------------------------------

def test_dns_frame_decoder_handles_split_and_coalesced_frames():
    wire_a = DNSMessage.query(1, ZONE).encode()
    wire_b = DNSMessage.query(2, ZONE).encode()
    stream = frame_dns(wire_a) + frame_dns(wire_b)
    decoder = DNSFrameDecoder()
    # Feed byte-by-byte: frames only complete at their exact boundary.
    out = []
    for index in range(len(stream)):
        out.extend(decoder.feed(stream[index:index + 1]))
    assert out == [wire_a, wire_b]
    # Coalesced feed yields both at once.
    assert DNSFrameDecoder().feed(stream) == [wire_a, wire_b]


def test_doh_codec_round_trip():
    wire = DNSMessage.query(7, ZONE).encode()
    decoder = DoHMessageDecoder()
    assert decoder.feed(doh_request(wire)) == [wire]
    assert DoHMessageDecoder().feed(doh_response(wire) * 2) == [wire, wire]
    assert b"POST /dns-query" in doh_request(wire)
    assert b"200 OK" in doh_response(wire)


BAD_LENGTHS = ("abc", "-5", "", "1_0", "65536",
               pytest.param("0" * 5000, id="5000-digits"))


@pytest.mark.parametrize("length", BAD_LENGTHS)
def test_doh_decoder_rejects_unusable_content_length(length):
    head = f"POST /dns-query HTTP/1.1\r\ncontent-length: {length}\r\n\r\n"
    with pytest.raises(WireFormatError):
        DoHMessageDecoder().feed(head.encode() + b"x" * 16)


@pytest.mark.parametrize("length", BAD_LENGTHS[:2])
def test_doh_server_drops_and_counts_a_bad_header(length):
    with obs.capture() as ob:
        testbed = build(defenses=("encrypted_transport_doh",))
        server = testbed.nameserver.stream_transport
        conn = testbed.resolver.tcp.connect(testbed.nameserver.address, DOH_PORT)
        channel = SecureChannel.client(conn, testbed.simulator.rng,
                                       expected_identity=server.identity or ZONE,
                                       trust_anchor=server.cert_key)
        head = f"POST /dns-query HTTP/1.1\r\ncontent-length: {length}\r\n\r\n"
        channel.on_ready = lambda: channel.send(head.encode())
        closed = []
        channel.on_close = lambda: closed.append(testbed.simulator.now)
        testbed.simulator.run(until=2.0)
    counters = ob.metrics.snapshot().counters
    assert counters[("dns.malformed", (("site", "doh_header"),))] == 1
    assert len(closed) == 1
    assert count(ob, "ns.queries_received") == 0


# -- nameserver truncation (TC bit) ---------------------------------------------

def test_nameserver_truncates_oversized_udp_responses():
    with obs.capture(trace=False) as ob:
        testbed = build(udp_limit=512)
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=3.0)
    assert count(ob, "ns.responses_truncated") == 1
    assert count(ob, "dns.responses_truncated") == 1


def test_truncated_response_is_never_cached_without_fallback_path():
    with obs.capture(trace=False) as ob:
        testbed = build(udp_limit=512)  # no stream listeners: retry cannot land
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=20.0)
    assert cached_records(testbed) is None
    assert count(ob, "dns.query_timeouts") == 1
    # A failed TC retry is not an encrypted failure and never downgrades.
    transport = testbed.resolver.upstream_transport
    assert transport.downgraded_queries == 0
    assert transport.encrypted_failures == 0


def test_small_responses_stay_untruncated_under_a_limit():
    with obs.capture(trace=False) as ob:
        testbed = build(udp_limit=1472, records_per_response=4)
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=3.0)
    assert count(ob, "ns.responses_truncated") == 0
    assert len(cached_records(testbed)) == 4


def test_tc_triggers_tcp_retry_and_full_answer():
    with obs.capture(trace=False) as ob:
        testbed = build(transports=("tcp",), udp_limit=512)
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=5.0)
    transport = testbed.resolver.upstream_transport
    assert transport is not None and transport.connections_opened == 1
    assert count(ob, "dns.pool.connections_opened", protocol="tcp") == 1  # the retry
    assert transport.encrypted_failures == 0
    # Asked over UDP (truncated answer), then once more over TCP.
    assert count(ob, "ns.queries_received") == testbed.nameserver.queries_received == 2
    assert count(ob, "ns.responses_sent", truncated=False) == 1
    # The stream answer is complete: all 40 records, no truncation.
    assert len(cached_records(testbed)) == 40


# -- server transports -----------------------------------------------------------

def test_server_transport_rejects_unknown_and_keyless_encrypted():
    testbed = build()
    with pytest.raises(ValueError, match="unknown stream transport"):
        DNSServerTransport(testbed.nameserver, transports=("quic",))
    with pytest.raises(ValueError, match="certificate key"):
        DNSServerTransport(testbed.nameserver, transports=("dot",))


def test_encrypted_transport_knobs_live_on_one_frozen_policy():
    defense = EncryptedTransport(zero_rtt=True, idle_timeout=5.0)
    assert defense.policy == EncryptedTransportPolicy(zero_rtt=True, idle_timeout=5.0)
    assert defense.policy.pooled
    doh = EncryptedTransportDoH(reuse_connections=True, idle_timeout=60.0)
    assert (doh.policy.protocol, doh.policy.strict) == ("doh", True)
    assert OpportunisticEncryptedTransport().policy.strict is False
    with pytest.raises(TypeError):
        EncryptedTransport(idle_timout=5.0)
    # The connect timeout and the downgrade hold-down are constants.
    with pytest.raises(TypeError):
        EncryptedTransport(holddown=5)
    with pytest.raises(ValueError, match="unknown encrypted protocol"):
        EncryptedTransportPolicy(protocol="quic")
    with pytest.raises(FrozenInstanceError):
        defense.policy.zero_rtt = False


@pytest.mark.parametrize("defense,label", [
    (("encrypted_transport",), "dot"),
    (("encrypted_transport_doh",), "doh"),
])
def test_encrypted_transport_resolves_over_tls(defense, label):
    with obs.capture() as ob:
        testbed = build(defenses=defense)
        assert label in testbed.config.nameserver_transports
        testbed.resolver.trigger_lookup(ZONE)
        testbed.simulator.run(until=5.0)
    assert len(cached_records(testbed)) == 40
    # The one query reached the nameserver over the stream only.
    assert count(ob, "ns.queries_received") == testbed.nameserver.queries_received == 1
    transport = testbed.resolver.upstream_transport
    assert count(ob, "dns.encrypted_queries") == 1
    assert transport.encrypted_failures == 0
    assert transport.downgraded_queries == 0
    # A per-query stream is still a connection, and no pool hit.
    assert transport.connections_opened == 1
    assert count(ob, "dns.pool.connections_reused") == 0
    assert count(ob, "dns.pool.connections_opened", protocol=label) == 1


def test_encrypted_transport_payload_opaque_on_the_wire():
    testbed = build(defenses=("encrypted_transport",))
    wire = bytearray()
    testbed.network.add_tap(lambda packet, now: wire.extend(packet.payload))
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=5.0)
    assert len(cached_records(testbed)) == 40
    # The qname travels in every plaintext DNS message; over DoT the taps
    # must never see it (neither the query nor the answer section).
    from repro.dns.wire import encode_name

    assert encode_name(ZONE) not in bytes(wire)


def test_strict_policy_fails_closed_when_listener_missing():
    # A strict resolver pointed at a nameserver with no DoT listener: the
    # query must fail (SERVFAIL via timeout), never fall back to UDP.
    with obs.capture(trace=False) as ob:
        testbed = build(defenses=("encrypted_transport",))
    listener = testbed.nameserver.tcp.listeners.pop(853)
    assert listener is not None
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=20.0)
    assert cached_records(testbed) is None
    transport = testbed.resolver.upstream_transport
    assert transport.encrypted_failures == 1
    assert transport.downgraded_queries == 0
    # The one per-query stream failed without a re-dispatch.
    assert count(ob, "dns.pool.reconnects") == 0
    assert transport.connections_opened == 1
    assert testbed.nameserver.queries_received == 0  # no plaintext leaked


def test_opportunistic_policy_falls_back_and_holds_down():
    with obs.capture(trace=False) as ob:
        testbed = build(defenses=("encrypted_transport_opportunistic",))
    testbed.nameserver.tcp.listeners.pop(853)
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=10.0)
    transport = testbed.resolver.upstream_transport
    assert transport.downgraded_queries == 1
    assert count(ob, "dns.pool.reconnects") == 0
    assert transport.connections_opened == 1
    assert len(cached_records(testbed)) == 40  # answered over plaintext UDP
    # Within the hold-down window the next query goes straight to UDP
    # without a new encrypted attempt.
    testbed.resolver.cache = type(testbed.resolver.cache)()
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=20.0)
    assert count(ob, "dns.encrypted_queries") == 1
    assert transport.downgraded_queries == 2


def spoof_response_for_pending(testbed, src_ip=None, dst_port=None,
                               truncated=False, address="6.6.6.6"):
    """Forge a UDP response matching the resolver's one pending query."""
    from dataclasses import replace

    from repro.dns.records import a_record
    from repro.netsim.packets import UDPDatagram

    [(key, pending)] = testbed.resolver._pending.items()
    response = pending.upstream_query.make_response(
        [] if truncated else [a_record(ZONE, address, 300)])
    if truncated:
        response = replace(response, truncated=True)
    return UDPDatagram(
        src_ip=src_ip or testbed.nameserver.address,
        dst_ip=testbed.resolver.address,
        src_port=53,
        dst_port=dst_port if dst_port is not None else pending.source_port,
        payload=response.encode(),
    )


def test_strict_dot_rejects_spoofed_plaintext_responses():
    # The query is out on DoT; a spoofed UDP datagram matching every classic
    # field (txid, question, source address, port) must still be rejected —
    # otherwise "strict" would be DoT on the wire but poisonable by datagram.
    testbed = build(defenses=("encrypted_transport",), latency=0.3)
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=0.1)  # query pending, DoT handshake in flight
    testbed.network.send_datagram(spoof_response_for_pending(testbed))
    testbed.simulator.run(until=0.5)  # spoof delivered, DoT answer not yet
    assert testbed.resolver.responses_rejected >= 1
    cached = cached_records(testbed)
    assert cached is None or "6.6.6.6" not in [r.rdata for r in cached]
    testbed.simulator.run(until=20.0)
    # The genuine DoT answer still lands.
    assert len(cached_records(testbed)) == 40


def test_spoofed_tc_stub_cannot_burn_the_stream_retry():
    # A TC=1 stub that fails the provenance checks (wrong source address or
    # wrong destination port) must be rejected without consuming the
    # one-shot TCP retry or conjuring a plaintext connection.
    with obs.capture(trace=False) as ob:
        testbed = build(transports=("tcp",), udp_limit=512, latency=0.5)
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=0.1)
    testbed.network.send_datagram(
        spoof_response_for_pending(testbed, src_ip="198.51.100.99", truncated=True))
    testbed.network.send_datagram(
        spoof_response_for_pending(testbed, dst_port=4444, truncated=True))
    testbed.simulator.run(until=0.8)  # spoofs delivered, genuine TC not yet
    assert testbed.resolver.responses_rejected == 2
    assert count(ob, "dns.responses_truncated") == 0
    [(key, pending)] = testbed.resolver._pending.items()
    assert not pending.stream_retry
    # The genuine truncated response then drives the normal TCP fallback.
    testbed.simulator.run(until=20.0)
    assert count(ob, "dns.pool.connections_opened", protocol="tcp") == 1  # the retry
    assert len(cached_records(testbed)) == 40


def test_encrypted_transports_identical_results_across_seeds_runs():
    def run(seed):
        testbed = build(defenses=("encrypted_transport",))
        testbed.resolver.trigger_lookup(ZONE)
        testbed.simulator.run(until=5.0)
        return [record.rdata for record in cached_records(testbed)]

    assert run(5) == run(5)
