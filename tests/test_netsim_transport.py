"""Unit tests for the connection-oriented netsim layer (TCP + SecureChannel)."""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from _counters import count
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.experiments import TestbedConfig, build_testbed, run_defense_matrix
from repro.experiments.pins import FULL_GRID_DIGEST
from repro.experiments.scenarios import TransportOverheadConfig, time_lookups
from repro.netsim import transport
from repro.netsim.network import Host, Network
from repro.netsim.packets import PROTO_TCP, IPPacket, PacketError
from repro.netsim.simulator import Simulator
from repro.netsim.transport import (
    DEFAULT_BACKLOG,
    DH_GENERATOR,
    DH_PRIME,
    FLAG_ACK,
    FLAG_RST,
    FLAG_SYN,
    SYN_TIMEOUT,
    ConnectionState,
    PlainStreamSocket,
    ResumptionTicketStore,
    SecureChannel,
    TCPSegment,
    TransportError,
    _generator_pow,
    _xor,
)


class Node(Host):
    def handle_datagram(self, datagram):
        pass


def make_pair(latency=0.01, seed=11):
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency=latency)
    return simulator, network, Node(network, "10.0.0.1"), Node(network, "10.0.0.2")


def serve_echo(host, port, received):
    """Listen on ``port``; echo every chunk back prefixed with ``ack:``."""
    def on_connection(conn):
        sock = PlainStreamSocket(conn)

        def on_data(data, sock=sock):
            received.append(data)
            sock.send(b"ack:" + data)

        sock.on_data = on_data
    return host.tcp.listen(port, on_connection)


# -- segments -------------------------------------------------------------------

def test_segment_encode_decode_round_trip():
    segment = TCPSegment(src_port=12345, dst_port=853, seq=0xDEADBEEF,
                         ack=0x01020304, flags=FLAG_SYN | FLAG_ACK, payload=b"xyz")
    decoded = TCPSegment.decode(segment.encode())
    assert decoded == segment
    assert segment.wire_size == 20 + 3


def test_segment_decode_rejects_truncated_header():
    with pytest.raises(PacketError):
        TCPSegment.decode(b"\x00" * 10)


def reference_encode(segment):
    """The byte-at-a-time header encoder the ``struct`` one replaced."""
    return (segment.src_port.to_bytes(2, "big")
            + segment.dst_port.to_bytes(2, "big")
            + (segment.seq % 2**32).to_bytes(4, "big")
            + (segment.ack % 2**32).to_bytes(4, "big")
            + bytes([5 << 4, segment.flags & 0x3F])
            + (65535).to_bytes(2, "big")
            + b"\x00\x00\x00\x00"
            + segment.payload)


segments = st.builds(
    TCPSegment,
    src_port=st.integers(min_value=0, max_value=0xFFFF),
    dst_port=st.integers(min_value=0, max_value=0xFFFF),
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    ack=st.integers(min_value=0, max_value=2**32 - 1),
    flags=st.integers(min_value=0, max_value=0x3F),
    payload=st.binary(max_size=64),
)


@given(segment=segments)
@example(segment=TCPSegment(0, 0, 0, 0, 0))
@example(segment=TCPSegment(0xFFFF, 0xFFFF, 2**32 - 1, 2**32 - 1, 0x3F, b"\xff"))
def test_segment_round_trips_and_matches_reference_encoder(segment):
    assert segment.encode() == reference_encode(segment)
    assert TCPSegment.decode(segment.encode()) == segment


@given(seq=st.integers(min_value=0, max_value=2**40),
       ack=st.integers(min_value=0, max_value=2**40),
       flags=st.integers(min_value=0, max_value=0xFF))
def test_segment_encoder_reduces_seq_and_masks_flags_like_reference(seq, ack, flags):
    segment = TCPSegment(1, 2, seq, ack, flags, b"x")
    assert segment.encode() == reference_encode(segment)


@given(data=st.binary(max_size=48))
@example(data=bytes(20))                        # data offset 0
@example(data=bytes(12) + b"\xf0" + bytes(7))    # offset 60 beyond 20 bytes
def test_segment_decode_raises_only_packet_error(data):
    try:
        segment = TCPSegment.decode(data)
    except PacketError:
        return
    offset = (data[12] >> 4) * 4
    assert segment.encode()[:12] == data[:12]
    assert segment.flags == data[13] & 0x3F
    assert segment.payload == data[offset:]


def test_undecodable_segment_is_dropped_and_counted():
    with obs.capture() as observed:
        simulator, network, client, server = make_pair()
        serve_echo(server, 853, [])
        garbage = bytearray(TCPSegment(40000, 853, 1, 0, FLAG_SYN).encode())
        garbage[12] = 1 << 4  # a data offset of 4 bytes, inside the header
        network.inject(IPPacket(src_ip="198.51.100.9", dst_ip="10.0.0.2", ip_id=7,
                                payload=bytes(garbage), protocol=PROTO_TCP,
                                spoofed=True))
        simulator.run(until=1.0)
        snapshot = observed.metrics.snapshot()
    # Dropped before the connection table or the listener saw the SYN.
    assert server.tcp.connections == {}
    assert server.tcp.listeners[853].half_open == {}
    assert snapshot.counter("tcp.malformed", site="segment") == 1
    assert snapshot.counter_total("tcp.malformed") == 1


def test_silent_drops_are_counted_by_reason():
    def inject(dst, segment):
        network.inject(IPPacket(src_ip="198.51.100.9", dst_ip=dst, ip_id=7,
                                payload=segment.encode(), protocol=PROTO_TCP,
                                spoofed=True))

    with obs.capture() as observed:
        simulator, network, client, server = make_pair()
        listener = serve_echo(server, 853, [])
        syn = TCPSegment(40000, 853, 1, 0, FLAG_SYN)
        inject("10.0.0.1", syn)  # the client never opened a TCP stack
        inject("10.0.0.2", TCPSegment(40001, 853, 1, 0, FLAG_ACK))  # no such flow
        inject("10.0.0.2", TCPSegment(40002, 854, 1, 0, FLAG_SYN))  # no listener
        inject("10.0.0.2", syn)
        # The stack hands a repeated SYN to the flow's half-open connection,
        # which rejects it as an out-of-window injection.
        inject("10.0.0.2", syn)
        simulator.run(until=1.0)
        snapshot = observed.metrics.snapshot()
    assert client._tcp is None
    assert len(listener.half_open) == 1
    assert snapshot.counter("tcp.dropped", reason="no_stack") == 1
    assert snapshot.counter("tcp.dropped", reason="no_flow") == 2
    assert snapshot.counter_total("tcp.dropped") == 3
    assert snapshot.counter("tcp.injections_rejected") == 1


# -- handshake and data transfer ------------------------------------------------

def test_three_way_handshake_and_echo():
    simulator, network, client, server = make_pair()
    received = []
    serve_echo(server, 4000, received)
    conn = client.tcp.connect("10.0.0.2", 4000)
    sock = PlainStreamSocket(conn)
    replies = []
    sock.on_ready = lambda: sock.send(b"ping")
    sock.on_data = replies.append
    simulator.run(until=1.0)
    assert conn.state is ConnectionState.ESTABLISHED
    assert received == [b"ping"]
    assert b"".join(replies) == b"ack:ping"


def test_handshake_takes_latency_round_trips():
    simulator, network, client, server = make_pair(latency=0.1)
    server.tcp.listen(4000, lambda conn: None)
    established = []
    conn = client.tcp.connect("10.0.0.2", 4000)
    conn.on_established = lambda: established.append(simulator.now)
    simulator.run(until=1.0)
    # SYN out (0.1) + SYN-ACK back (0.1): established after one RTT.
    assert established == [pytest.approx(0.2)]


def test_isns_are_rng_drawn_and_deterministic():
    def run(seed):
        simulator, network, client, server = make_pair(seed=seed)
        server.tcp.listen(4000, lambda conn: None)
        conn = client.tcp.connect("10.0.0.2", 4000)
        simulator.run(until=1.0)
        return conn.iss

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_connections_to_one_remote_port_get_distinct_local_ports():
    simulator, network, client, server = make_pair()
    server.tcp.listen(4000, lambda conn: None)
    conns = [client.tcp.connect("10.0.0.2", 4000) for _ in range(50)]
    assert len({conn.local_port for conn in conns}) == 50
    assert len(client.tcp.connections) == 50


def test_mss_segmentation_and_in_order_reassembly():
    simulator, network, client, server = make_pair()
    network.set_path_mtu("10.0.0.1", 200)  # mss = 200 - 20 - 20 = 160
    received = []

    def on_connection(conn):
        sock = PlainStreamSocket(conn)
        sock.on_data = received.append
    server.tcp.listen(4000, on_connection)

    conn = client.tcp.connect("10.0.0.2", 4000)
    assert conn.mss == 160
    payload = bytes(range(256)) * 4  # 1024 bytes -> 7 segments
    sock = PlainStreamSocket(conn)
    sock.on_ready = lambda: sock.send(payload)
    simulator.run(until=1.0)
    assert b"".join(received) == payload
    assert max(len(chunk) for chunk in received) <= 160


def test_send_requires_established_connection():
    simulator, network, client, server = make_pair()
    server.tcp.listen(4000, lambda conn: None)
    conn = client.tcp.connect("10.0.0.2", 4000)
    with pytest.raises(TransportError):
        conn.send(b"too early")


def test_connect_timeout_fires_when_no_listener():
    simulator, network, client, server = make_pair()
    failures = []
    conn = client.tcp.connect("10.0.0.2", 4000, timeout=2.0)
    conn.on_failure = failures.append
    simulator.run(until=5.0)
    assert failures == ["connect timeout"]
    assert conn.state is ConnectionState.CLOSED
    assert client.tcp.connections == {}


# -- off-path injection defenses ------------------------------------------------

def test_blind_data_injection_rejected_by_sequence_check():
    with obs.capture() as observed:
        simulator, network, client, server = make_pair()
        received = []
        serve_echo(server, 4000, received)
        conn = client.tcp.connect("10.0.0.2", 4000)
        sock = PlainStreamSocket(conn)
        simulator.run(until=1.0)
        assert conn.established
        # Off-path attacker spoofs a data segment with the right 4-tuple but
        # an unobservable (wrong) sequence number.
        server_conn = next(iter(server.tcp.connections.values()))
        bogus = TCPSegment(src_port=conn.local_port, dst_port=4000,
                           seq=(server_conn.rcv_nxt + 2**31) % 2**32,
                           ack=0, flags=FLAG_ACK, payload=b"EVIL")
        network.inject(IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2",
                                ip_id=7, payload=bogus.encode(), protocol=PROTO_TCP,
                                spoofed=True))
        simulator.run(until=2.0)
    assert received == []
    # The server's connection rejected it, and nothing else rejected a segment.
    [rejected] = [event for event in observed.trace.events()
                  if event.name == "tcp.injection_rejected"]
    assert (rejected.arg("host"), rejected.arg("port")) == ("10.0.0.2", 4000)
    assert observed.metrics.snapshot().counter("tcp.injections_rejected") == 1


def test_blind_rst_rejected_without_sequence_knowledge():
    with obs.capture(trace=False) as observed:
        simulator, network, client, server = make_pair()
    serve_echo(server, 4000, [])
    conn = client.tcp.connect("10.0.0.2", 4000)
    PlainStreamSocket(conn)
    simulator.run(until=1.0)
    rst = TCPSegment(src_port=4000, dst_port=conn.local_port,
                     seq=12345, ack=0, flags=FLAG_RST)
    network.inject(IPPacket(src_ip="10.0.0.2", dst_ip="10.0.0.1",
                            ip_id=9, payload=rst.encode(), protocol=PROTO_TCP,
                            spoofed=True))
    simulator.run(until=2.0)
    assert conn.established
    assert count(observed, "tcp.injections_rejected") == 1


def test_spoofed_synack_with_wrong_ack_rejected():
    with obs.capture(trace=False) as observed:
        simulator, network, client, server = make_pair()
    conn = client.tcp.connect("10.0.0.2", 4000, timeout=10.0)
    spoofed = TCPSegment(src_port=4000, dst_port=conn.local_port,
                         seq=999, ack=(conn.iss + 2) % 2**32,
                         flags=FLAG_SYN | FLAG_ACK)
    network.inject(IPPacket(src_ip="10.0.0.2", dst_ip="10.0.0.1",
                            ip_id=3, payload=spoofed.encode(), protocol=PROTO_TCP,
                            spoofed=True))
    simulator.run(until=1.0)
    assert conn.state is ConnectionState.SYN_SENT
    assert count(observed, "tcp.injections_rejected") == 1


# -- listener backlog (SYN flood) ------------------------------------------------

def flood_listener(network, dst, port, count, rng):
    for index in range(count):
        segment = TCPSegment(src_port=1024 + index, dst_port=port,
                             seq=rng.getrandbits(32), ack=0, flags=FLAG_SYN)
        network.inject(IPPacket(src_ip=f"203.0.113.{index % 254 + 1}",
                                dst_ip=dst, ip_id=index + 1,
                                payload=segment.encode(), protocol=PROTO_TCP,
                                spoofed=True))


def test_syn_flood_fills_backlog_and_drops_genuine_syn():
    simulator, network, client, server = make_pair()
    accepted = []
    listener = server.tcp.listen(4000, accepted.append)
    flood_listener(network, "10.0.0.2", 4000, 40, simulator.rng)
    simulator.run(until=0.5)
    assert len(listener.half_open) == DEFAULT_BACKLOG == 16
    assert server.tcp.syns_dropped == 24
    failures = []
    conn = client.tcp.connect("10.0.0.2", 4000, timeout=1.0)
    conn.on_failure = failures.append
    simulator.run(until=3.0)
    assert failures == ["connect timeout"]
    assert accepted == []


def test_half_open_entries_expire_and_listener_recovers():
    simulator, network, client, server = make_pair()
    accepted = []
    listener = server.tcp.listen(4000, accepted.append)
    flood_listener(network, "10.0.0.2", 4000, 16, simulator.rng)
    simulator.run(until=0.5)
    assert len(listener.half_open) == 16
    simulator.run(until=SYN_TIMEOUT + 1.0)  # past the 10 s SYN timeout
    assert listener.half_open == {}
    conn = client.tcp.connect("10.0.0.2", 4000)
    PlainStreamSocket(conn)
    simulator.run(until=SYN_TIMEOUT + 2.0)
    assert conn.established
    assert len(accepted) == 1


# -- secure channel --------------------------------------------------------------

def secure_server(host, port, cert_key, identity, received):
    def on_connection(conn):
        channel = SecureChannel.server(conn, host.network.simulator.rng,
                                       identity=identity, cert_key=cert_key)

        def on_data(data, channel=channel):
            received.append(data)
            channel.send(b"answer:" + data)

        channel.on_data = on_data
    return host.tcp.listen(port, on_connection)


def test_secure_channel_round_trip_and_identity():
    simulator, network, client, server = make_pair()
    received = []
    secure_server(server, 853, "zone-key", "pool.ntp.org", received)
    conn = client.tcp.connect("10.0.0.2", 853)
    channel = SecureChannel.client(conn, simulator.rng,
                                   expected_identity="pool.ntp.org",
                                   trust_anchor="zone-key")
    replies = []
    channel.on_ready = lambda: channel.send(b"query")
    channel.on_data = replies.append
    simulator.run(until=1.0)
    assert received == [b"query"]
    assert replies == [b"answer:query"]
    assert channel.peer_identity == "pool.ntp.org"


def test_secure_channel_rejects_wrong_identity_and_forged_key():
    for anchor, identity, expected_fragment in (
            ("zone-key", "evil.example", "pinned"),
            ("attacker-key", "pool.ntp.org", "signature")):
        simulator, network, client, server = make_pair()
        secure_server(server, 853, "zone-key", identity, [])
        conn = client.tcp.connect("10.0.0.2", 853)
        channel = SecureChannel.client(conn, simulator.rng,
                                       expected_identity="pool.ntp.org",
                                       trust_anchor=anchor)
        failures = []
        channel.on_failure = failures.append
        simulator.run(until=1.0)
        assert len(failures) == 1 and expected_fragment in failures[0]
        assert not channel.ready


def test_secure_channel_payload_opaque_to_taps():
    simulator, network, client, server = make_pair()
    wire = bytearray()
    network.add_tap(lambda packet, now: wire.extend(packet.payload))
    received = []
    secure_server(server, 853, "zone-key", "pool.ntp.org", received)
    conn = client.tcp.connect("10.0.0.2", 853)
    channel = SecureChannel.client(conn, simulator.rng,
                                   expected_identity="pool.ntp.org",
                                   trust_anchor="zone-key")
    secret = b"SECRET-QUESTION-pool.ntp.org"
    channel.on_ready = lambda: channel.send(secret)
    simulator.run(until=1.0)
    assert received == [secret]          # the endpoint decrypts it...
    assert secret not in bytes(wire)     # ...but the wire never carries it
    assert b"SECRET" not in bytes(wire)


def test_secure_channel_deterministic_per_seed():
    def transcript(seed):
        simulator, network, client, server = make_pair(seed=seed)
        frames = []
        network.add_tap(lambda packet, now: frames.append(bytes(packet.payload)))
        secure_server(server, 853, "k", "pool.ntp.org", [])
        conn = client.tcp.connect("10.0.0.2", 853)
        channel = SecureChannel.client(conn, simulator.rng,
                                       expected_identity="pool.ntp.org",
                                       trust_anchor="k")
        channel.on_ready = lambda: channel.send(b"q")
        simulator.run(until=1.0)
        return frames

    assert transcript(5) == transcript(5)
    assert transcript(5) != transcript(6)


# -- handshake kernel --------------------------------------------------------------

@given(exponent=st.integers(min_value=0, max_value=2**256 - 1))
@example(exponent=1)
@example(exponent=2**255 - 1)
@example(exponent=0x01_00_00_FF_00_00_00_02)
@example(exponent=1 << 248)
def test_fixed_base_table_matches_pow(exponent):
    assert _generator_pow(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)


def test_fixed_base_table_is_not_built_at_import():
    probe = ("import repro.netsim.transport as t; "
             "print(t._generator_table.cache_info().currsize)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "0"


def test_integer_xor_matches_bytewise_reference():
    rng = random.Random(3)
    for length in range(101):
        data = rng.randbytes(length)
        keystream = rng.randbytes(length)
        assert _xor(data, keystream) == bytes(a ^ b for a, b in zip(data, keystream))


def test_channel_construction_draws_secret_then_random():
    simulator, network, client, server = make_pair()
    server.tcp.listen(853, lambda conn: None)
    rng = random.Random(99)
    twin = random.Random(99)
    SecureChannel.client(client.tcp.connect("10.0.0.2", 853), rng,
                         expected_identity="pool.ntp.org", trust_anchor="k")
    twin.getrandbits(255)
    twin.getrandbits(256)
    assert rng.getstate() == twin.getstate()


def test_resumed_channels_never_compute_a_share():
    simulator, network, client, server = make_pair()
    store = ResumptionTicketStore()
    server_channels = []

    def on_connection(conn):
        channel = SecureChannel.server(conn, simulator.rng, identity="pool.ntp.org",
                                       cert_key="k", ticket_store=store)
        channel.on_data = lambda data, channel=channel: channel.send(b"re:" + data)
        server_channels.append(channel)
    server.tcp.listen(853, on_connection, fast_open=True)

    tickets = []
    conn = client.tcp.connect("10.0.0.2", 853)
    cold = SecureChannel.client(conn, simulator.rng, expected_identity="pool.ntp.org",
                                trust_anchor="k", on_ticket=tickets.append)
    simulator.run(until=1.0)
    conn.close()
    simulator.run(until=2.0)
    assert len(tickets) == 1
    assert "_share" in vars(cold) and "_share" in vars(server_channels[0])

    conn = client.tcp.create_connection("10.0.0.2", 853)
    resumed = SecureChannel.client(conn, simulator.rng, expected_identity="pool.ntp.org",
                                   trust_anchor="k", ticket=tickets[0])
    replies = []
    resumed.on_data = replies.append
    conn.open(resumed.first_flight(b"q"))
    simulator.run(until=3.0)
    assert replies == [b"re:q"]
    assert resumed.resumed and server_channels[1].resumed
    assert "_share" not in vars(resumed)
    assert "_share" not in vars(server_channels[1])


# -- share registry: the DH key from the fixed-base table -------------------------

CLIENT_RANDOM, SERVER_RANDOM = b"c" * 32, b"s" * 32


def derived_key(secret, peer_share):
    """The key ``SecureChannel._derive_key`` makes for a bare ``secret``."""
    channel = SimpleNamespace(_secret=secret, _key=None)
    SecureChannel._derive_key(channel, peer_share, CLIENT_RANDOM, SERVER_RANDOM)
    return channel._key


def pow_key(secret, peer_share, client_random=CLIENT_RANDOM, server_random=SERVER_RANDOM):
    """The key by the variable-base ladder alone."""
    shared = pow(peer_share, secret, DH_PRIME)
    return hashlib.sha256(shared.to_bytes(32, "big") + client_random
                          + server_random).digest()


@contextlib.contextmanager
def counted_pow():
    """Record every base ``repro.netsim.transport`` passes to ``pow``."""
    bases = []

    def counting(base, exponent, modulus):
        bases.append(base)
        return pow(base, exponent, modulus)

    transport.pow = counting
    try:
        yield bases
    finally:
        del transport.pow


secrets = st.integers(min_value=1, max_value=2**255 - 1)


@given(secret=secrets, peer_secret=secrets)
@example(secret=1, peer_secret=1)
@example(secret=2**255 - 1, peer_secret=2**255 - 1)
@example(secret=(DH_PRIME - 1) // 2, peer_secret=2)  # product == p - 1
@example(secret=1 << 254, peer_secret=3)
def test_registry_key_equals_pow_key(secret, peer_secret):
    share = SecureChannel._share.func(SimpleNamespace(_secret=peer_secret))
    assert transport._SHARE_EXPONENTS[share] == peer_secret
    with counted_pow() as bases:
        key = derived_key(secret, share)
    assert bases == []
    assert share not in transport._SHARE_EXPONENTS
    assert key == pow_key(secret, share)


def test_foreign_share_falls_back_to_pow():
    foreign = pow(DH_GENERATOR, 0xC0FFEE, DH_PRIME)  # no channel made this one
    transport._SHARE_EXPONENTS.pop(foreign, None)
    with counted_pow() as bases:
        key = derived_key(7, foreign)
    assert bases == [foreign]
    assert key == pow_key(7, foreign)


def test_replayed_server_hello_falls_back_to_pow():
    simulator, network, client, server = make_pair()
    hellos = []

    def record_server_hellos(packet, now):
        payload = TCPSegment.decode(packet.payload).payload
        if packet.src_ip == "10.0.0.2" and payload[:1] == b"\x02":
            hellos.append(payload)

    network.add_tap(record_server_hellos)
    secure_server(server, 853, "k", "pool.ntp.org", [])
    honest = SecureChannel.client(client.tcp.connect("10.0.0.2", 853), simulator.rng,
                                  expected_identity="pool.ntp.org", trust_anchor="k")
    with counted_pow() as bases:
        simulator.run(until=1.0)
    assert honest.ready and bases == [] and len(hellos) == 1
    server_random = hellos[0][3:35]
    server_share = int.from_bytes(hellos[0][35:67], "big")
    assert server_share not in transport._SHARE_EXPONENTS
    assert honest._key == pow_key(honest._secret, server_share,
                                  honest._random, server_random)

    # The recorded hello, replayed to a fresh client: its entry is consumed.
    replayed = SecureChannel.client(client.tcp.create_connection("10.0.0.2", 853),
                                    simulator.rng, expected_identity="pool.ntp.org",
                                    trust_anchor="k")
    with counted_pow() as bases:
        replayed._on_connection_data(hellos[0])
    assert bases == [server_share]
    assert replayed._key == pow_key(replayed._secret, server_share,
                                    replayed._random, server_random)


@pytest.mark.parametrize("label", ("udp", "dot", "dot_reused", "dot_0rtt"))
def test_honest_serving_never_calls_variable_base_pow(label):
    transport._SHARE_EXPONENTS.clear()
    with counted_pow() as bases:
        testbed, answer_times = time_lookups(TransportOverheadConfig(label, queries=20), 42)
    assert None not in answer_times
    assert bases == []
    assert transport._SHARE_EXPONENTS == {}
    if label == "dot":
        assert testbed.resolver.upstream_transport.connections_opened == 20


def test_pinned_grid_window_leaves_the_registry_empty():
    transport._SHARE_EXPONENTS.clear()
    with counted_pow() as bases:
        matrix = run_defense_matrix(seeds=(1, 2), workers=1)
    assert matrix.digest() == FULL_GRID_DIGEST
    assert bases == []
    assert transport._SHARE_EXPONENTS == {}


def test_no_attack_module_references_the_registry():
    attacks = Path(transport.__file__).resolve().parent.parent / "attacks"
    modules = sorted(attacks.glob("*.py"))
    assert modules
    for module in modules:
        assert "_SHARE_EXPONENTS" not in module.read_text(), module.name


# -- records after an abort --------------------------------------------------------

def record(name, body):
    """One secure-channel record of type ``transport._REC_<name>``."""
    return transport._frame_record(getattr(transport, f"_REC_{name}"), body)


def probe_dot_listener(payload):
    """Send ``payload`` in one segment from a fresh host to the nameserver's
    DoT port; returns the prober's connection and the bytes it received."""
    testbed = build_testbed(TestbedConfig(seed=1, defenses=("encrypted_transport",),
                                          with_attacker=False))
    prober = Node(testbed.network, "203.0.113.7")
    conn = prober.tcp.connect(testbed.config.nameserver_address, 853)
    conn.on_established = lambda: conn.send(payload)
    received = []
    conn.on_data = received.append
    testbed.simulator.run(until=5.0)
    return conn, b"".join(received)


@pytest.mark.parametrize(("first", "reason", "malformed"), [
    (record("APP_DATA", b"x"), b"application data before handshake", 0),
    (record("CLIENT_HELLO", b"\x01" * 3), b"malformed ClientHello", 0),
    (transport._frame_record(99, b"?") + record("APP_DATA", b"x"),
     b"application data before handshake", 1),
], ids=["app_data", "short_hello", "unknown_type"])
def test_records_after_an_abort_are_not_dispatched(first, reason, malformed):
    # The valid ClientHello behind the aborting record used to be answered
    # on the closed connection, raising TransportError out of the run.  A
    # record of unknown type ahead of the abort is dropped and counted.
    with obs.capture() as observed:
        conn, received = probe_dot_listener(
            first + record("CLIENT_HELLO", b"\x01" * 64))
        snapshot = observed.metrics.snapshot()
    assert received == record("ALERT", reason)
    assert conn.state is ConnectionState.CLOSED
    assert snapshot.counter("tls.aborts", side="server") == 1
    assert snapshot.counter_total("tls.aborts") == 1
    assert snapshot.counter("tls.malformed", site="record") == malformed
    assert snapshot.counter_total("tls.malformed") == malformed


def test_a_repeated_client_hello_aborts_the_server_channel():
    simulator, network, client, server = make_pair()
    server_hellos = []

    def record_server_hellos(packet, now):
        payload = TCPSegment.decode(packet.payload).payload
        if packet.src_ip == "10.0.0.2" and payload[:1] == b"\x02":
            server_hellos.append(payload)

    network.add_tap(record_server_hellos)
    secure_server(server, 853, "k", "pool.ntp.org", [])
    channel = SecureChannel.client(client.tcp.connect("10.0.0.2", 853), simulator.rng,
                                   expected_identity="pool.ntp.org", trust_anchor="k")
    failures = []
    channel.on_failure = failures.append
    simulator.run(until=1.0)
    assert channel.ready
    hello = channel._random + channel._share.to_bytes(32, "big")
    channel.connection.send(record("CLIENT_HELLO", hello))
    simulator.run(until=2.0)
    assert len(server_hellos) == 1
    assert failures == ["repeated ClientHello"]
    assert not channel.connection.established
