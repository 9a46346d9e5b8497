"""Wire-trace differential gate for the resolver's upstream stream paths.

Each case drives a small seeded testbed through one stream-transport
lifecycle — per-query DoT/DoH, the TC-bit retry over plain TCP, listener
failures with strict and opportunistic policies, a mid-pipeline reset on a
reused stream and 0-RTT resumption — while a network tap records every
packet.  The digest covers each packet's send time, addresses, IP id,
protocol, fragment fields and payload bytes, plus the final resolver and
upstream-transport counters (read from the run's ``repro.obs`` snapshot)
and the cached answer.  The pins were recorded
before the stream paths were unified, so any refactor of
:mod:`repro.dns.transport` must reproduce the old wire behaviour packet for
packet.

``connections_opened`` is deliberately left out of the counters: it used
to count only pooled streams and now counts every stream.
"""

from __future__ import annotations

import hashlib

import pytest
from _counters import total

from repro import obs
from repro.defenses.transport import EncryptedTransport
from repro.dns.records import RecordType
from repro.experiments import TestbedConfig, build_testbed
from repro.netsim.packets import PROTO_TCP, IPPacket
from repro.netsim.transport import FLAG_RST, TCPSegment

ZONE = "pool.ntp.org"

#: The pinned final counters, in pin order: the upstream transport's and
#: the resolver's, each the sum of its ``repro.obs`` counters.  The
#: pipelining high-water mark is the largest ``dns.pool.pipelined_in_flight``.
TRANSPORT_COUNTERS = {
    "encrypted_queries": ("dns.encrypted_queries",),
    "encrypted_failures": ("dns.encrypted_failures",),
    "downgraded_queries": ("dns.downgraded_queries",),
    "tcp_retries": ("dns.pool.connections_opened{protocol=tcp}",),
    "connections_reused": ("dns.pool.connections_reused",),
    "reconnects": ("dns.pool.reconnects",),
    "zero_rtt_queries": ("dns.pool.zero_rtt_queries",),
}
RESOLVER_COUNTERS = {
    "queries_answered_from_cache": ("dns.cache_hits",),
    "queries_forwarded": ("dns.queries_forwarded",),
    "responses_rejected": ("dns.responses_rejected", "dns.responses_unmatched"),
    "poisoned_responses_accepted": ("dns.cache_writes{poisoned=True}",),
    "truncated_responses": ("dns.responses_truncated",),
    "timeouts": ("dns.query_timeouts",),
    "retries": ("dns.query_retries",),
    "stale_answers": ("dns.stale_answers",),
}


def build(defenses=(), transports=(), udp_limit=None, seed=5):
    return build_testbed(TestbedConfig(
        seed=seed, benign_server_count=30, records_per_response=40,
        nameserver_transports=tuple(transports),
        nameserver_udp_payload_limit=udp_limit,
        defenses=tuple(defenses), with_attacker=False))


def lookups(testbed, times, until, name=ZONE, flush=False):
    for at in times:
        if flush and at > 0:
            testbed.simulator.schedule_at(at - 0.001, testbed.resolver.cache.flush)
        testbed.simulator.schedule_at(
            at, lambda: testbed.resolver.trigger_lookup(name))
    testbed.simulator.run(until=until)


def strict_dot_cold(record):
    testbed = record(build(defenses=("encrypted_transport",)))
    # Two concurrent queries to one nameserver: each gets its own stream.
    testbed.simulator.schedule_at(
        0.01, lambda: testbed.resolver.trigger_lookup("0." + ZONE))
    lookups(testbed, (0.0,), until=10.0)
    return testbed


def strict_doh_cold(record):
    testbed = record(build(defenses=("encrypted_transport_doh",)))
    lookups(testbed, (0.0,), until=10.0)
    return testbed


def tc_retry_over_tcp(record):
    testbed = record(build(transports=("tcp",), udp_limit=512))
    lookups(testbed, (0.0,), until=10.0)
    return testbed


def tc_retry_without_listener(record):
    testbed = record(build(udp_limit=512))
    lookups(testbed, (0.0,), until=20.0)
    return testbed


def strict_dot_listener_missing(record):
    testbed = record(build(defenses=("encrypted_transport",)))
    testbed.nameserver.tcp.listeners.pop(853)
    lookups(testbed, (0.0,), until=20.0)
    return testbed


def opportunistic_dot_listener_missing(record):
    testbed = record(build(defenses=("encrypted_transport_opportunistic",)))
    testbed.nameserver.tcp.listeners.pop(853)
    # The first query downgrades; the second falls inside the hold-down.
    lookups(testbed, (0.0, 10.0), until=20.0, flush=True)
    return testbed


def reused_dot_mid_pipeline_reset(record):
    testbed = record(build(defenses=(
        EncryptedTransport(reuse_connections=True, idle_timeout=60.0),)))
    simulator = testbed.simulator
    lookups(testbed, (0.0,), until=1.0)
    upstream = testbed.resolver.upstream_transport
    pooled = next(iter(upstream._pool.values()))

    def reset_stream():
        conn = pooled.socket.connection
        segment = TCPSegment(src_port=853, dst_port=conn.local_port,
                             seq=conn.rcv_nxt, ack=0, flags=FLAG_RST)
        testbed.network.inject(IPPacket(
            src_ip=testbed.nameserver.address, dst_ip=conn.stack.host.address,
            ip_id=999, payload=segment.encode(), protocol=PROTO_TCP))

    simulator.schedule_at(10.005, reset_stream)
    lookups(testbed, (10.0,), until=20.0, flush=True)
    return testbed


def zero_rtt_three_lookups(record):
    testbed = record(build(defenses=(
        EncryptedTransport(zero_rtt=True, idle_timeout=5.0),)))
    lookups(testbed, (0.0, 10.0, 20.0), until=30.0, flush=True)
    return testbed


CASES = {case.__name__: case for case in (
    strict_dot_cold, strict_doh_cold, tc_retry_over_tcp,
    tc_retry_without_listener, strict_dot_listener_missing,
    opportunistic_dot_listener_missing, reused_dot_mid_pipeline_reset,
    zero_rtt_three_lookups,
)}

#: Recorded against the per-query ``_send_encrypted``/``retry_over_tcp``
#: paths, before every stream became a ``PooledConnection``.
PINS = {
    "strict_dot_cold":
        "70a2987a3fd1decd135a3e811c72bbc5c50628ca6fb35154b41a5d25751744ec",
    "strict_doh_cold":
        "e4e4dadd9f4393f86349e076f652396df4a98a3c7d7f47074267a2adcad649b0",
    "tc_retry_over_tcp":
        "acf4cf3391f09006bbff268f15031e5a713c04e4ca99194626dfb407104c7a62",
    "tc_retry_without_listener":
        "fda9f0ae2b6b5b3f15e8765dae4d79ccc6b8b07cecc600e3a10c70a9d237aae0",
    "strict_dot_listener_missing":
        "a031b0959dea32951b084cd6891dc3e89e16ffb8289c8cb7c090a2a7303008e2",
    "opportunistic_dot_listener_missing":
        "d1d32426826fb07d8064f2089225aa58e1ffb670bb6753e5855df2fdee9794d9",
    "reused_dot_mid_pipeline_reset":
        "96d19a8e8794a350a41517c7aff5a51fdeb63bcd393a399a790f24ba7c22c0f1",
    "zero_rtt_three_lookups":
        "164eb05fd76912fbe9a632190db275f2a804d181698d5c98e7dd6286936ead19",
}


def trace_digest(case) -> str:
    digest = hashlib.sha256()

    def tap(packet, now):
        digest.update(repr((now, packet.src_ip, packet.dst_ip, packet.ip_id,
                            packet.protocol, packet.fragment_offset,
                            packet.more_fragments)).encode())
        digest.update(packet.payload)

    def record(testbed):
        testbed.network.add_tap(tap)
        return testbed

    with obs.capture(trace=False) as observed:
        testbed = case(record)
    snapshot = observed.metrics.snapshot()
    in_flight = max((value for (name, _), value in snapshot.gauges.items()
                     if name == "dns.pool.pipelined_in_flight"), default=0)
    entry = testbed.resolver.cache.peek(ZONE, RecordType.A)
    final = (
        tuple(total(snapshot, keys) for keys in RESOLVER_COUNTERS.values()),
        (*(total(snapshot, keys) for keys in TRANSPORT_COUNTERS.values()), in_flight)
        if testbed.resolver.upstream_transport is not None else None,
        None if entry is None else (
            entry.inserted_at, tuple(record.rdata for record in entry.records)),
    )
    digest.update(repr(final).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_stream_wire_trace_matches_pin(name):
    assert trace_digest(CASES[name]) == PINS[name]
