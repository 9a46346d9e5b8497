"""Serving-layer tests: connection reuse, pipelining, 0-RTT, RRL.

Covers the high-QPS serving additions end to end: RFC 7766 §6.2
out-of-order pipelining on a pooled upstream stream, reconnect-on-reset
mid-pipeline, the idle-timeout close racing a new query, TFO/0-RTT session
resumption with its replay caveat, and the response-rate-limiting defense
with its matrix columns.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from _counters import count

from repro import obs
from repro.defenses.transport import EncryptedTransport
from repro.dns.nameserver import ResponseRateLimiter
from repro.dns.records import RecordType
from repro.dns.transport import PooledConnection, frame_dns
from repro.experiments import AttackSpec, TestbedConfig, build_testbed, run_scenario
from repro.experiments.matrix import (
    DEFAULT_STACKS,
    SERVING_ATTACKS,
    SERVING_STACKS,
    run_defense_matrix,
)
from repro.experiments.pins import SERVING_MATRIX_DIGEST
from repro.netsim.network import Host, Network
from repro.netsim.packets import PROTO_TCP, IPPacket
from repro.netsim.simulator import Simulator
from repro.netsim.transport import (
    FLAG_RST,
    FLAG_SYN,
    ResumptionTicketStore,
    SecureChannel,
    TCPSegment,
)

ZONE = "pool.ntp.org"


def reuse_testbed(defense, **overrides):
    config = TestbedConfig(seed=42, benign_server_count=20,
                          with_attacker=False, defenses=(defense,),
                          **overrides)
    return build_testbed(config)


def resolve_at(testbed, at, name=ZONE):
    testbed.simulator.schedule_at(
        at, lambda: testbed.resolver.trigger_lookup(name))


def answered_at(testbed, name=ZONE):
    entry = testbed.resolver.cache.peek(name, RecordType.A)
    return None if entry is None else entry.inserted_at


# -- ticket store units -----------------------------------------------------------

def test_ticket_store_redeems_issued_tickets_and_rejects_unknown_ones():
    store = ResumptionTicketStore()
    store.issue(b"nonce", b"psk")
    assert store.redeem(b"nonce") == b"psk"
    assert store.redeem(b"nonce") == b"psk"  # replayable
    assert store.redeem(b"other") is None


def test_rrl_token_bucket_slip_and_prefix():
    limiter = ResponseRateLimiter()
    # Burst, then alternating drop/slip while the bucket is empty.
    verdicts = [limiter.check("10.0.0.1", 0.0) for _ in range(6)]
    assert verdicts == ["send", "send", "drop", "slip", "drop", "slip"]
    # Same /24 shares the bucket; a different /24 starts fresh.
    assert limiter.check("10.0.0.99", 0.0) == "drop"
    assert limiter.check("10.0.1.1", 0.0) == "send"
    # Refill: one token per second.
    assert limiter.check("10.0.0.1", 1.5) == "send"
    assert (limiter.responses_dropped, limiter.responses_slipped) == (3, 2)
    with pytest.raises(TypeError):
        ResponseRateLimiter(leak=2)


# -- netsim: fast open + session resumption ---------------------------------------

class Node(Host):
    def handle_datagram(self, datagram):
        pass


def make_pair(seed=11):
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency=0.01)
    return simulator, network, Node(network, "10.0.0.1"), Node(network, "10.0.0.2")


def ticketed_server(host, store, received):
    def on_connection(conn):
        channel = SecureChannel.server(conn, host.network.simulator.rng,
                                       identity=ZONE, cert_key="zone-key",
                                       ticket_store=store)

        def on_data(data, channel=channel):
            received.append(data)
            channel.send(b"answer:" + data)

        channel.on_data = on_data
    return host.tcp.listen(853, on_connection, fast_open=True)


def open_resumed(client, simulator, ticket, early_data):
    conn = client.tcp.create_connection("10.0.0.2", 853)
    channel = SecureChannel.client(conn, simulator.rng,
                                   expected_identity=ZONE,
                                   trust_anchor="zone-key", ticket=ticket)
    conn.open(channel.first_flight(early_data))
    return conn, channel


def test_zero_rtt_resumption_answers_in_one_round_trip():
    simulator, network, client, server = make_pair()
    store = ResumptionTicketStore()
    received = []
    listener = ticketed_server(server, store, received)

    tickets = []
    conn = client.tcp.connect("10.0.0.2", 853)
    channel = SecureChannel.client(conn, simulator.rng, expected_identity=ZONE,
                                   trust_anchor="zone-key",
                                   on_ticket=tickets.append)
    channel.on_ready = lambda: channel.send(b"cold-query")
    simulator.run(until=1.0)
    assert received == [b"cold-query"]
    assert len(tickets) == 1
    conn.close()
    simulator.run(until=2.0)

    replies = []
    start = simulator.now
    conn2, channel2 = open_resumed(client, simulator, tickets[0], b"warm-query")
    channel2.on_data = lambda data: replies.append((simulator.now - start, data))
    simulator.run(until=start + 1.0)
    assert received[-1] == b"warm-query"
    # The listener took the query off the SYN: answered one 20 ms RTT later.
    assert replies == [(pytest.approx(0.02), b"answer:warm-query")]
    assert listener.fast_open and listener.half_open == {}
    assert channel2.resumed and channel2.handshake_complete
    assert channel2.peer_identity == ZONE


def test_zero_rtt_first_flight_replay_by_off_path_attacker():
    """The modelled 0-RTT caveat: a captured first flight replays cleanly
    against the ticket store."""
    simulator, network, client, server = make_pair()
    store = ResumptionTicketStore()
    received = []
    ticketed_server(server, store, received)

    tickets = []
    conn = client.tcp.connect("10.0.0.2", 853)
    SecureChannel.client(conn, simulator.rng, expected_identity=ZONE,
                         trust_anchor="zone-key", on_ticket=tickets.append)
    simulator.run(until=1.0)
    conn.close()
    simulator.run(until=2.0)

    # The attacker taps the resumed connection's SYN — the first flight
    # carrying the resumption hello and the encrypted early data.
    captured = []

    def tap(packet, now):
        if packet.protocol != PROTO_TCP:
            return
        segment = TCPSegment.decode(packet.payload)
        if segment.flags & FLAG_SYN and segment.payload:
            captured.append(packet)
    network.add_tap(tap)

    conn2, channel2 = open_resumed(client, simulator, tickets[0], b"query")
    simulator.run(until=3.0)
    assert len(captured) == 1
    processed_before = len(received)
    conn2.close()
    simulator.run(until=4.0)

    # Off-path replay of the captured bytes, verbatim: the server decrypts
    # and answers again.
    network.inject(replace(captured[0], spoofed=True))
    simulator.run(until=5.0)
    assert len(received) == processed_before + 1
    assert received[-1] == b"query"


# -- pooled connection: demux, idle, reset ----------------------------------------

class FakeSocket:
    def __init__(self):
        self.ready = True
        self.sent = []
        self.on_ready = None
        self.on_data = None
        self.on_close = None
        self.on_failure = None
        self.closed = False

    def send(self, data):
        self.sent.append(data)

    def close(self):
        self.closed = True


class FakeTransport:
    def __init__(self):
        self._simulator = Simulator(seed=1)
        self.delivered = []
        self.gone = []

    def _deliver(self, pending, response, wire):
        self.delivered.append((pending, response))

    def _connection_gone(self, pooled, reason, failed):
        self.gone.append((reason, failed))


def pool_pending(txid, qname):
    from repro.dns.message import DNSMessage
    from repro.dns.resolver import PendingUpstreamQuery

    query = DNSMessage.query(txid, qname)
    return PendingUpstreamQuery(
        upstream_query=query, nameserver_address="192.0.2.53",
        source_port=33333, client_address=None, client_port=None,
        client_query=None, sent_at=0.0)


def test_pipelined_responses_demultiplex_out_of_order():
    transport = FakeTransport()
    pooled = PooledConnection(transport, "192.0.2.53", "dot", FakeSocket(),
                              idle_timeout=30.0)
    first = pool_pending(7, "0.pool.ntp.org")
    second = pool_pending(9, "1.pool.ntp.org")
    pooled.send_query((7, "0.pool.ntp.org"), first)
    pooled.send_query((9, "1.pool.ntp.org"), second)
    assert pooled.max_in_flight == 2

    # The server answers in the opposite order, split across arbitrary
    # stream chunk boundaries; each response still reaches its query.
    wire = (frame_dns(second.upstream_query.make_response([]).encode())
            + frame_dns(first.upstream_query.make_response([]).encode()))
    pooled._on_data(wire[:11])
    pooled._on_data(wire[11:])
    assert [pending for pending, _ in transport.delivered] == [second, first]
    assert pooled.in_flight == {}


def test_unmatched_response_keeps_stream_alive():
    transport = FakeTransport()
    pooled = PooledConnection(transport, "192.0.2.53", "dot", FakeSocket(),
                              idle_timeout=30.0)
    pending = pool_pending(7, ZONE)
    pooled.send_query((7, ZONE), pending)
    stray = pool_pending(8, ZONE).upstream_query.make_response([])
    pooled._on_data(frame_dns(stray.encode()))
    assert transport.delivered == []
    assert not pooled.closed and (7, ZONE) in pooled.in_flight


def test_single_use_stream_closes_before_delivering_its_one_answer():
    with obs.capture() as ob:
        transport = FakeTransport()
        socket = FakeSocket()
        stream = PooledConnection(transport, "192.0.2.53", "tcp", socket,
                                  idle_timeout=None)
        pending = pool_pending(7, ZONE)
        stream.send_query((7, ZONE), pending)
        closed_at_delivery = []
        transport._deliver = lambda *_: closed_at_delivery.append(socket.closed)
        answer = frame_dns(pending.upstream_query.make_response([]).encode())
        stream._on_data(frame_dns(b"\xff" * 5) + answer + answer)
    assert closed_at_delivery == [True]
    assert transport.gone == [("answered", False)]
    counters = ob.metrics.snapshot().counters
    assert counters[("dns.malformed", (("site", "upstream_pool"),))] == 1
    stream._lost("connection reset by peer")  # already closed: no second fate
    assert transport.gone == [("answered", False)]

    # A peer close before the answer is no failure: the query is left to
    # the resolver's timeout.
    quiet = PooledConnection(transport, "192.0.2.53", "dot", FakeSocket(),
                             idle_timeout=None)
    quiet.send_query((8, ZONE), pool_pending(8, ZONE))
    quiet.socket.on_close()
    assert transport.gone[-1] == ("closed by peer", False)


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_upstream_doh_stream_closes_on_a_bad_header(length):
    with obs.capture() as ob:
        transport = FakeTransport()
        socket = FakeSocket()
        stream = PooledConnection(transport, "192.0.2.53", "doh", socket,
                                  idle_timeout=30.0)
        stream.send_query((7, ZONE), pool_pending(7, ZONE))
        head = f"HTTP/1.1 200 OK\r\ncontent-length: {length}\r\n\r\n"
        stream._on_data(head.encode() + b"x" * 16)
    assert stream.closed and socket.closed
    assert transport.gone == [("malformed DoH header", False)]
    assert transport.delivered == []
    counters = ob.metrics.snapshot().counters
    assert counters[("dns.malformed", (("site", "doh_header"),))] == 1


def test_connection_reuse_collapses_per_query_round_trips():
    with obs.capture(trace=False) as ob:
        testbed = reuse_testbed(
            EncryptedTransport(reuse_connections=True, idle_timeout=60.0))
    for index in range(3):
        resolve_at(testbed, index * 10.0)
        testbed.simulator.run(until=index * 10.0 + 9.0)
        assert answered_at(testbed) == pytest.approx(
            index * 10.0 + (0.06 if index == 0 else 0.02))
        testbed.resolver.cache.flush()
    upstream = testbed.resolver.upstream_transport
    assert upstream.connections_opened == 1
    assert count(ob, "dns.pool.connections_reused") == 2


def test_idle_timeout_close_races_new_query():
    with obs.capture(trace=False) as ob:
        testbed = reuse_testbed(
            EncryptedTransport(reuse_connections=True, idle_timeout=5.0))
    # Query 0 opens the stream (idle deadline ~5.06).  Query 1 lands just
    # before the deadline: the dispatch disarms the pending timer and the
    # stream is reused, not closed under the query.  Query 2 arrives long
    # after the idle close and pays a fresh handshake.
    for at in (0.0, 5.05, 30.0):
        resolve_at(testbed, at)
    testbed.simulator.run(until=34.0)
    assert answered_at(testbed) == pytest.approx(30.06)
    upstream = testbed.resolver.upstream_transport
    assert upstream.connections_opened == 2
    assert count(ob, "dns.pool.connections_reused") == 1
    assert upstream._pool != {}
    testbed.simulator.run(until=40.0)  # past 35.06: the idle close lands
    assert upstream._pool == {}


def test_mid_pipeline_reset_redispatches_in_flight_queries():
    with obs.capture(trace=False) as ob:
        testbed = reuse_testbed(
            EncryptedTransport(reuse_connections=True, idle_timeout=60.0))
    simulator, network = testbed.simulator, testbed.network
    resolve_at(testbed, 0.0)
    simulator.run(until=1.0)  # warm stream established
    upstream = testbed.resolver.upstream_transport
    pooled = next(iter(upstream._pool.values()))
    testbed.resolver.cache.flush()

    resolve_at(testbed, 10.0)

    def reset_stream():
        # An in-window RST from the nameserver (a crashed daemon's kernel),
        # landing while the pipelined query is in flight.
        conn = pooled.socket.connection
        segment = TCPSegment(src_port=853, dst_port=conn.local_port,
                             seq=conn.rcv_nxt, ack=0, flags=FLAG_RST)
        network.inject(IPPacket(src_ip="192.0.2.53", dst_ip=conn.stack.host.address,
                                ip_id=999, payload=segment.encode(),
                                protocol=PROTO_TCP))
    simulator.schedule_at(10.005, reset_stream)
    simulator.run(until=20.0)

    # The orphaned query was re-dispatched over a fresh connection and
    # still answered — one logical query, two connections.
    assert answered_at(testbed) is not None and answered_at(testbed) >= 10.0
    assert count(ob, "dns.pool.reconnects") == 1
    assert upstream.connections_opened == 2
    assert count(ob, "dns.encrypted_queries") == 2


def test_fault_plan_outage_exhausts_redispatch_budget_then_recovers():
    with obs.capture(trace=False) as ob:
        testbed = reuse_testbed(
            EncryptedTransport(reuse_connections=True, idle_timeout=60.0),
            faults=({"kind": "host_outage", "start": 0.0, "end": 4.0,
                     "host": "@nameserver"},))
    resolve_at(testbed, 0.0)
    testbed.simulator.run(until=8.0)
    upstream = testbed.resolver.upstream_transport
    # Connect timeouts burned both redispatch attempts, then strict policy
    # failed closed (no cache entry, no plaintext fallback).
    assert count(ob, "dns.pool.reconnects") == 2
    assert upstream.encrypted_failures >= 1
    assert upstream.downgraded_queries == 0
    assert answered_at(testbed) is None
    # After the outage the next query opens a fresh stream and answers.
    resolve_at(testbed, 10.0)
    testbed.simulator.run(until=15.0)
    assert answered_at(testbed) == pytest.approx(10.06)


def test_zero_rtt_testbed_resumes_and_traces_connection_spans():
    with obs.capture() as ob:
        testbed = reuse_testbed(
            EncryptedTransport(zero_rtt=True, idle_timeout=5.0))
        for index in range(3):
            resolve_at(testbed, index * 10.0)
            testbed.simulator.run(until=index * 10.0 + 9.0)
        upstream = testbed.resolver.upstream_transport
        assert upstream.connections_opened == 3
        counters = {(name, labels): value for (name, labels), value
                    in ob.metrics.snapshot().counters.items()}
        assert counters[("dns.pool.zero_rtt_queries", (("protocol", "dot"),))] == 2
        # Each idle-closed connection leaves one lifetime span behind.
        spans = [event for event in ob.trace.events()
                 if event.name == "dns.pool.connection"]
        assert len(spans) >= 2
        assert all(event.arg("queries") == 1 for event in spans)
        assert any(event.arg("resumed") for event in spans)


# -- serving matrix ---------------------------------------------------------------

def test_serving_stacks_stay_out_of_default_grid():
    default_names = {stack.name for stack in DEFAULT_STACKS}
    assert {stack.name for stack in SERVING_STACKS}.isdisjoint(default_names)


def test_sustained_load_params_are_optional():
    from repro.experiments import get_scenario

    scenario = get_scenario("frag_poisoning")
    assert "trigger_count" in scenario.optional_params()
    assert "trigger_interval" in scenario.optional_params()
    # Leaving the knobs out keeps the classic single-race metrics exactly.
    base = run_scenario("frag_poisoning", seed=5, params={})
    assert "races_run" not in base
    sustained = run_scenario("frag_poisoning", seed=5,
                             params={"trigger_count": 1})
    assert sustained["races_run"] == 1
    assert {key: sustained[key] for key in base} == base


def test_rrl_throttles_sustained_races_but_not_single_shot():
    single = run_scenario("frag_poisoning", seed=3,
                          params={"defenses": ("response_rate_limit",)})
    assert single["attack_succeeded"]  # burst covers a one-shot race
    sustained = run_scenario(
        "frag_poisoning", seed=3,
        params={"trigger_count": 12, "trigger_interval": 0.25,
                "defenses": ("response_rate_limit",)})
    assert sustained["races_poisoned"] < sustained["races_run"] // 2
    assert sustained["rrl_dropped"] > 0 and sustained["rrl_slipped"] > 0


def test_serving_matrix_policy_table_and_worker_determinism():
    attacks = (*SERVING_ATTACKS, AttackSpec("downgrade", "downgrade", {}))
    results = {
        workers: run_defense_matrix(attacks=attacks, stacks=SERVING_STACKS,
                                    seeds=(1, 2), workers=workers)
        for workers in (1, 2)
    }
    assert results[1].digest() == results[2].digest() == SERVING_MATRIX_DIGEST
    table = results[1].success_table()
    assert table["sustained_load"]["rrl_plus_dot"] == 0.0
    assert table["downgrade"]["rrl"] == 1.0
    assert table["downgrade"]["rrl_plus_dot"] == 0.0
    assert table["downgrade"]["rrl_plus_dot_opp"] == 1.0
