"""Off-path garbage never stops a simulation, and each drop is counted once.

Four gates:

* names a query decodes but its reply could not encode (over 255 bytes, an
  empty label from a ``.`` byte inside a label) are malformed at decode, on
  UDP and on a DoT stream alike;
* hypothesis-drawn payloads at every UDP port of an attack testbed and of
  the default testbed: ``Simulator.run`` never raises, and
  ``dns.malformed`` + ``ntp.malformed`` rise by one exactly when the
  receiver's codec rejects the payload;
* hypothesis-drawn stream inputs at the nameserver's TCP 53, DoT 853 and
  DoH 443 listeners (raw segments, secure-channel records, DNS frames and
  DoH requests, sent in random chunks): ``Simulator.run`` never raises, and
  a rejected input raises exactly one of the stream drop counters;
* the same on the resolver's side: a fake upstream answers the ``tcp``,
  ``dot``, ``doh``, ``dot_reused`` and ``dot_0rtt`` streams with a drawn
  record sent raw in place of the handshake reply, or with a drawn DNS
  payload or DoH header inside a valid channel (on a reused or 0-RTT
  resumed stream where the world has one): each unit sent raises exactly
  one stream drop counter when the resolver rejects it, and none otherwise;
  a pooled stream whose query the resolver timed out still idles out.
"""

from __future__ import annotations

import struct
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.attacks.chronos_pool_attack import ChronosPoolAttackScenario
from repro.dns.message import DNSMessage
from repro.dns.records import a_record
from repro.dns.transport import (
    DOH_PORT,
    DOT_PORT,
    doh_request,
    doh_response,
    frame_dns,
    stream_decoder,
)
from repro.dns.wire import WireFormatError
from repro.experiments import TestbedConfig, build_testbed
from repro.experiments.scenarios import TRANSPORT_PROFILES
from repro.netsim import transport
from repro.netsim.packets import PROTO_TCP, IPPacket, PacketError, UDPDatagram
from repro.netsim.transport import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    PlainStreamSocket,
    SecureChannel,
    TCPSegment,
)
from repro.ntp.packet import NTP_PORT, NTPPacket, PacketFormatError

DNS_PORT = 53
ZONE = "pool.ntp.org"
#: An address no testbed host owns: replies to it are simply lost.
OFF_PATH = "203.0.113.77"


def query_naming(raw_name: bytes) -> bytes:
    """A one-question query whose QNAME is ``raw_name`` verbatim."""
    return struct.pack(">6H", 7, 0x0100, 1, 0, 0, 0) + raw_name + b"\x00\x01\x00\x01"


#: Names that decoded on the parent of the fix but could not be re-encoded.
CRAFTED_QUERIES = {
    "name-over-255-bytes": query_naming(b"".join(b"\x3f" + b"a" * 63 for _ in range(5))
                                        + b"\x00"),
    "dot-inside-a-label": query_naming(b"\x02a.\x03org\x00"),
}


def malformed(observed) -> int:
    snapshot = observed.metrics.snapshot()
    return snapshot.counter_total("dns.malformed") + snapshot.counter_total("ntp.malformed")


# -- crafted names ------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(CRAFTED_QUERIES))
@pytest.mark.parametrize("target", ["resolver", "nameserver"])
def test_unencodable_name_is_dropped_at_decode(target, kind):
    with obs.capture(trace=False) as observed:
        testbed = build_testbed(TestbedConfig(seed=5, with_attacker=False))
        address = getattr(testbed, target).address
        testbed.network.send_datagram(UDPDatagram(OFF_PATH, address, 33333, DNS_PORT,
                                                  CRAFTED_QUERIES[kind]))
        testbed.simulator.run(until=5.0)
    snapshot = observed.metrics.snapshot()
    assert snapshot.counter("dns.malformed", site=target) == 1
    assert snapshot.counter_total("dns.malformed") == 1


@pytest.mark.parametrize("kind", sorted(CRAFTED_QUERIES))
def test_unencodable_name_is_dropped_on_the_dot_listener(kind):
    with obs.capture(trace=False) as observed:
        testbed = build_testbed(TestbedConfig(seed=5, with_attacker=False,
                                              defenses=("encrypted_transport",)))
        server = testbed.nameserver.stream_transport
        conn = testbed.resolver.tcp.connect(testbed.nameserver.address, DOT_PORT)
        channel = SecureChannel.client(conn, testbed.simulator.rng,
                                       expected_identity=server.identity or ZONE,
                                       trust_anchor=server.cert_key)
        channel.on_ready = lambda: channel.send(frame_dns(CRAFTED_QUERIES[kind]))
        testbed.simulator.run(until=2.0)
    snapshot = observed.metrics.snapshot()
    assert snapshot.counter("dns.malformed", site="server_stream") == 1
    assert snapshot.counter("ns.queries_received") == 0


# -- system-level UDP fuzz ------------------------------------------------------------

def _valid_payloads() -> list[bytes]:
    query = DNSMessage.query(0x1234, ZONE, cookie=0x0102030405060708, case_nonce=0b1011)
    flood = [a_record(ZONE, f"198.51.100.{index + 1}", 172800) for index in range(89)]
    return [
        query.encode(),
        query.make_response([a_record(ZONE, f"10.10.0.{i + 1}", 150) for i in range(4)]).encode(),
        query.make_response(flood).encode(),
        NTPPacket.client_request(1000.0).encode(),
        NTPPacket.client_request(1000.0).server_reply(1000.1, 1000.2, 2, 999.0).encode(),
    ]


@st.composite
def mutated(draw):
    """A valid DNS or NTP payload with a few bytes changed, then cut."""
    wire = bytearray(draw(st.sampled_from(_valid_payloads())))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(wire) - 1))
        wire[position] = draw(st.integers(min_value=0, max_value=255))
    return bytes(wire[:draw(st.integers(min_value=0, max_value=len(wire)))])


payloads = st.one_of(st.binary(max_size=600), mutated())


@cache
def fuzz_world(kind: str):
    """``(simulator, network, observed, targets)``; built once, reused by every example.

    ``targets`` are ``(address, src_port, dst_port, decode)``: where to send
    a payload and which codec the receiver runs on it.
    """
    with obs.capture(trace=False) as observed:
        if kind == "attack":
            scenario = ChronosPoolAttackScenario()
            testbed = scenario.testbed
            attacker_ns = testbed.hijacker.nameserver.address
            extra = [(attacker_ns, 5353, DNS_PORT, DNSMessage.decode),
                     (testbed.attacker.ntp_addresses[0], 40000, NTP_PORT, NTPPacket.decode),
                     (scenario.client.address, DNS_PORT, 40000, DNSMessage.decode),
                     (scenario.client.address, NTP_PORT, 40000, NTPPacket.decode)]
        else:
            testbed = build_testbed(TestbedConfig())
            extra = []
    targets = [(testbed.resolver.address, 5353, DNS_PORT, DNSMessage.decode),
               (testbed.nameserver.address, 5353, DNS_PORT, DNSMessage.decode),
               (next(iter(testbed.benign_clock_errors)), 40000, NTP_PORT, NTPPacket.decode),
               *extra]
    return testbed.simulator, testbed.network, observed, targets


def rejects(decode, payload: bytes) -> bool:
    try:
        decode(payload)
    except (WireFormatError, PacketFormatError):
        return True
    return False


@pytest.mark.parametrize("kind", ["attack", "default"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=payloads)
@example(payload=CRAFTED_QUERIES["name-over-255-bytes"])
@example(payload=CRAFTED_QUERIES["dot-inside-a-label"])
def test_injected_udp_payloads_never_stop_the_simulation(kind, payload):
    simulator, network, observed, targets = fuzz_world(kind)
    for address, src_port, dst_port, decode in targets:
        before = malformed(observed)
        network.send_datagram(UDPDatagram(OFF_PATH, address, src_port, dst_port, payload))
        simulator.run(until=simulator.now + 3.0)
        assert malformed(observed) - before == rejects(decode, payload), (address, dst_port)


# -- system-level TCP-stream fuzz -------------------------------------------------------

#: Every way a stream input can be dropped at the nameserver.
STREAM_DROPS = ("dns.malformed", "tls.malformed", "tls.aborts", "tcp.malformed",
                "tcp.dropped")
STREAM_PORTS = (DNS_PORT, DOT_PORT, DOH_PORT)
#: Secure-channel record types a server accepts before the handshake: a
#: ClientHello (when it is 64 bytes) and an alert, which closes quietly.
CLIENT_HELLO, ALERT = transport._REC_CLIENT_HELLO, transport._REC_ALERT
KNOWN_RECORDS = (CLIENT_HELLO, transport._REC_SERVER_HELLO, transport._REC_TICKET,
                 transport._REC_RESUME_HELLO, transport._REC_RESUME_ACK,
                 transport._REC_EARLY_DATA, ALERT, transport._REC_APP_DATA)


@st.composite
def raw_segment(draw):
    """A TCP segment to one of the listeners, with a few bytes changed, then cut."""
    flags = draw(st.sampled_from([FLAG_SYN, FLAG_SYN | FLAG_ACK, FLAG_ACK,
                                  FLAG_RST, FLAG_FIN | FLAG_ACK,
                                  draw(st.integers(0, 0x3F))]))
    wire = bytearray(TCPSegment(
        src_port=draw(st.integers(1, 0xFFFF)), dst_port=draw(st.sampled_from(STREAM_PORTS)),
        seq=draw(st.integers(0, 2**32 - 1)), ack=draw(st.integers(0, 2**32 - 1)),
        flags=flags, payload=draw(st.binary(max_size=64))).encode())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        wire[draw(st.integers(0, len(wire) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.just(len(wire)), st.integers(0, len(wire))))
    return ("segment", None, bytes(wire[:cut]))


@st.composite
def channel_record(draw):
    """One secure-channel record, sent without a handshake to 853 or 443."""
    record_type = draw(st.one_of(st.sampled_from(KNOWN_RECORDS), st.integers(0, 255)))
    size = draw(st.sampled_from([64, draw(st.integers(0, 200))]))
    body = draw(st.binary(min_size=size, max_size=size))
    return ("record", draw(st.sampled_from([DOT_PORT, DOH_PORT])),
            transport._frame_record(record_type, body))


@st.composite
def dns_input(draw):
    """A DNS message over plain TCP, DoT or DoH; a DoH header may be garbage."""
    port = draw(st.sampled_from(STREAM_PORTS))
    payload = draw(st.one_of(st.sampled_from(_valid_payloads()), payloads))
    if port == DOH_PORT and draw(st.booleans()):
        length = draw(st.sampled_from(["-1", "65536", "12x", "999999", ""]))
        return ("doh_header", port,
                f"POST /dns-query HTTP/1.1\r\ncontent-length: {length}\r\n\r\n".encode())
    return ("dns", port, doh_request(payload) if port == DOH_PORT else frame_dns(payload))


def expected_drop(kind: str, port, data: bytes):
    """The one drop counter ``data`` should raise, or ``None`` if it is accepted."""
    if kind == "segment":
        try:
            segment = TCPSegment.decode(data)
        except PacketError:
            return "tcp.malformed"
        opens = segment.flags & (FLAG_SYN | FLAG_ACK | FLAG_RST) == FLAG_SYN
        return None if opens and segment.dst_port in STREAM_PORTS else "tcp.dropped"
    if kind == "record":
        record_type, body = data[0], data[3:]
        if record_type == ALERT or (record_type == CLIENT_HELLO and len(body) == 64):
            return None
        return "tls.aborts" if record_type in KNOWN_RECORDS else "tls.malformed"
    if kind == "doh_header":
        return "dns.malformed"
    wire = data[data.index(b"\r\n\r\n") + 4:] if port == DOH_PORT else data[2:]
    return "dns.malformed" if rejects(DNSMessage.decode, wire) else None


def chunks(data: bytes, cuts: list[int]) -> list[bytes]:
    edges = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    return [data[start:end] for start, end in zip(edges, edges[1:])]


stream_inputs = st.one_of(raw_segment(), channel_record(), dns_input())
#: RFC 793: a listener ignores a reset, so a SYN carrying RST opens nothing.
SYN_WITH_RST = TCPSegment(1, DNS_PORT, 0, 0, FLAG_SYN | FLAG_RST).encode()


# Each unit is the stream's last bytes.  A rejected input closes the flow, and
# every segment sent after it is its own packet for a flow that is gone, which
# also counts ``tcp.dropped{reason=no_flow}`` (pinned by the two tests below);
# sending the unit last keeps the expected count at exactly one drop.
@settings(max_examples=300, deadline=None)
@given(unit=stream_inputs, cuts=st.lists(st.integers(0, 1 << 16), max_size=4))
@example(unit=("record", DOT_PORT, transport._frame_record(99, b"?")), cuts=[1])
@example(unit=("segment", None, SYN_WITH_RST), cuts=[])
@example(unit=("doh_header", DOH_PORT,
               b"POST /dns-query HTTP/1.1\r\ncontent-length: x\r\n\r\n"), cuts=[9])
def test_stream_inputs_never_stop_the_simulation(unit, cuts):
    kind, port, data = unit
    with obs.capture(trace=False) as observed:
        testbed = build_testbed(TestbedConfig(seed=5, with_attacker=False,
                                              defenses=("encrypted_transport",),
                                              nameserver_transports=("doh",)))
    nameserver, simulator = testbed.nameserver, testbed.simulator
    pieces = chunks(data, cuts)
    if kind == "segment":
        testbed.network.inject(IPPacket(OFF_PATH, nameserver.address, ip_id=1,
                                        payload=data, protocol=PROTO_TCP))
    elif kind == "record" or port == DNS_PORT:
        conn = testbed.resolver.tcp.connect(nameserver.address, port)
        conn.on_established = lambda: [conn.send(piece) for piece in pieces]
    else:
        server = nameserver.stream_transport
        conn = testbed.resolver.tcp.connect(nameserver.address, port)
        channel = SecureChannel.client(conn, simulator.rng, expected_identity=ZONE,
                                       trust_anchor=server.cert_key)
        channel.on_ready = lambda: [channel.send(piece) for piece in pieces]
    simulator.run(until=30.0)
    snapshot = observed.metrics.snapshot()
    raised = {name: snapshot.counter_total(name) for name in STREAM_DROPS}
    expected = expected_drop(kind, port, data)
    assert raised == {name: int(name == expected) for name in STREAM_DROPS}, (kind, port)


def encrypted_world():
    with obs.capture(trace=False) as observed:
        testbed = build_testbed(TestbedConfig(seed=5, with_attacker=False,
                                              defenses=("encrypted_transport",),
                                              nameserver_transports=("doh",)))
    return observed, testbed


def stream_drops(observed) -> dict[str, int]:
    snapshot = observed.metrics.snapshot()
    return {name: snapshot.counter_total(name) for name in STREAM_DROPS}


def test_segments_after_a_bad_doh_header_count_once_each_as_no_flow():
    observed, testbed = encrypted_world()
    nameserver, simulator = testbed.nameserver, testbed.simulator
    conn = testbed.resolver.tcp.connect(nameserver.address, DOH_PORT)
    channel = SecureChannel.client(conn, simulator.rng, expected_identity=ZONE,
                                   trust_anchor=nameserver.stream_transport.cert_key)
    pieces = [b"POST /dns-query HTTP/1.1\r\ncontent-length: x\r\n\r\n",
              bytes(30), bytes(30)]
    channel.on_ready = lambda: [channel.send(piece) for piece in pieces]
    simulator.run(until=30.0)
    snapshot = observed.metrics.snapshot()
    assert snapshot.counter("dns.malformed", site="doh_header") == 1
    assert snapshot.counter("tcp.dropped", reason="no_flow") == 2
    assert stream_drops(observed) == {**dict.fromkeys(STREAM_DROPS, 0),
                                      "dns.malformed": 1, "tcp.dropped": 2}


def test_records_after_a_tls_abort_count_once_each_as_no_flow():
    observed, testbed = encrypted_world()
    conn = testbed.resolver.tcp.connect(testbed.nameserver.address, DOT_PORT)
    # Application data before any handshake aborts the channel.
    records = [transport._frame_record(transport._REC_APP_DATA, b"?" * 10)] * 3
    conn.on_established = lambda: [conn.send(record) for record in records]
    testbed.simulator.run(until=30.0)
    assert observed.metrics.snapshot().counter("tcp.dropped", reason="no_flow") == 2
    assert stream_drops(observed) == {**dict.fromkeys(STREAM_DROPS, 0),
                                      "tls.aborts": 1, "tcp.dropped": 2}


# -- client-side TCP-stream fuzz ----------------------------------------------------------

#: The resolver's upstream stream worlds (``TRANSPORT_PROFILES``).
CLIENT_PROFILES = ("tcp", "dot", "doh", "dot_reused", "dot_0rtt")


@st.composite
def upstream_input(draw):
    """``(profile, kind, unit, payload)``: what a fake upstream answers with.

    ``record`` is one secure-channel record sent raw, in place of the
    handshake reply; ``dns`` a framed DNS payload and ``doh_header`` a
    garbage DoH response header, both inside a valid channel (or plain TCP).
    """
    profile = draw(st.sampled_from(CLIENT_PROFILES))
    if profile != "tcp" and draw(st.booleans()):
        record_type = draw(st.one_of(st.sampled_from(KNOWN_RECORDS), st.integers(0, 255)))
        return (profile, "record",
                transport._frame_record(record_type, draw(st.binary(max_size=200))), None)
    if profile == "doh" and draw(st.booleans()):
        length = draw(st.sampled_from(["-1", "65536", "12x", "999999", ""]))
        return (profile, "doh_header",
                f"HTTP/1.1 200 OK\r\ncontent-length: {length}\r\n\r\n".encode(), None)
    payload = draw(st.one_of(st.sampled_from(_valid_payloads()), payloads))
    return (profile, "dns",
            doh_response(payload) if profile == "doh" else frame_dns(payload), payload)


def expected_client_drop(kind: str, unit: bytes, payload):
    """The one drop counter the resolver should raise per unit, or ``None``."""
    if kind == "record":
        # Before the handshake every known record but an alert aborts the client.
        if unit[0] == ALERT:
            return None
        return "tls.aborts" if unit[0] in KNOWN_RECORDS else "tls.malformed"
    if kind == "doh_header":
        return "dns.malformed"
    return "dns.malformed" if rejects(DNSMessage.decode, payload) else None


def serve_garbage(testbed, kind: str, pieces: list[bytes]) -> list[int]:
    """Make the nameserver's listeners answer with ``pieces``: raw, in place
    of every handshake reply, or inside the channel to every query but the
    world's first, which gets its genuine answer (so the second lookup
    reuses or resumes a stream).  Returns ``[units sent]``."""
    nameserver = testbed.nameserver
    server = nameserver.stream_transport
    sent, genuine = [0], [True]

    def answer(send) -> None:
        sent[0] += 1
        for piece in pieces:
            send(piece)

    def raw(conn) -> None:
        def on_hello(_data) -> None:
            conn.on_data = None  # one unit per connection
            answer(conn.send)
        conn.on_data = on_hello

    def in_channel(conn, port) -> None:
        label = {DNS_PORT: "tcp", DOT_PORT: "dot", DOH_PORT: "doh"}[port]
        socket = (PlainStreamSocket(conn) if label == "tcp" else SecureChannel.server(
            conn, testbed.simulator.rng, identity=server.identity or nameserver.name,
            cert_key=server.cert_key, ticket_store=server.ticket_store))

        def on_query(data) -> None:
            if genuine[0]:
                genuine[0] = False
                [wire] = stream_decoder(label).feed(data)
                response = nameserver.answer_query(DNSMessage.decode(wire)).encode()
                socket.send(doh_response(response) if label == "doh" else frame_dns(response))
            else:
                answer(socket.send)
        socket.on_data = on_query

    for port, listener in nameserver.tcp.listeners.items():
        listener.on_connection = (raw if kind == "record"
                                  else lambda conn, port=port: in_channel(conn, port))
    return sent


@settings(max_examples=200, deadline=None)
@given(unit=upstream_input(), cuts=st.lists(st.integers(0, 1 << 16), max_size=4))
@example(unit=("dot", "record", transport._frame_record(99, b"?"), None), cuts=[1])
@example(unit=("dot_0rtt", "dns", frame_dns(b"\x00" * 5), b"\x00" * 5), cuts=[])
@example(unit=("doh", "doh_header",
               b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n", None), cuts=[9])
def test_upstream_stream_inputs_never_stop_the_simulation(unit, cuts):
    profile, kind, data, payload = unit
    with obs.capture(trace=False) as observed:
        # 30 records make the UDP answer truncate in the ``tcp`` world.
        testbed = build_testbed(TestbedConfig(seed=5, with_attacker=False,
                                              records_per_response=30,
                                              **TRANSPORT_PROFILES[profile]))
    sent = serve_garbage(testbed, kind, chunks(data, cuts))
    simulator, resolver = testbed.simulator, testbed.resolver
    # Two lookups: the second reuses the pooled stream, or resumes with
    # 0-RTT after the 5 s idle close.
    simulator.schedule_at(0.0, lambda: resolver.trigger_lookup(ZONE))
    simulator.schedule_at(9.999, resolver.cache.flush)
    simulator.schedule_at(10.0, lambda: resolver.trigger_lookup(ZONE))
    simulator.run(until=30.0)
    expected = expected_client_drop(kind, data, payload)
    assert sent[0] >= 1
    assert stream_drops(observed) == {name: sent[0] * (name == expected)
                                      for name in STREAM_DROPS}, (profile, kind)


@pytest.mark.parametrize("profile", ["dot_0rtt", "tcp", "dot", "doh"])
def test_a_timed_out_query_leaves_its_pooled_stream_to_idle_out(profile):
    """An upstream that answers with a valid but unmatched message: once the
    resolver times the query out, its 0-RTT stream has nothing in flight
    and closes after the 5 s idle timeout, and a single-use stream (the TC
    retry's TCP, per-query DoT or DoH) closes at once.  Either way no
    connection is left open on either end."""
    # 30 records make the UDP answer truncate in the ``tcp`` world.
    testbed = build_testbed(TestbedConfig(seed=5, with_attacker=False,
                                          records_per_response=30,
                                          **TRANSPORT_PROFILES[profile]))
    unmatched = _valid_payloads()[1]   # an answer to txid 0x1234
    sent = serve_garbage(testbed, "dns", [frame_dns(unmatched)])
    simulator, resolver = testbed.simulator, testbed.resolver
    simulator.schedule_at(0.0, lambda: resolver.trigger_lookup(ZONE))
    simulator.schedule_at(9.999, resolver.cache.flush)
    simulator.schedule_at(10.0, lambda: resolver.trigger_lookup(ZONE))
    simulator.run(until=100.0)
    assert sent[0] == 1
    assert resolver._pending == {}
    assert resolver.upstream_transport._pool == {}
    assert resolver.tcp.connections == {}
    assert testbed.nameserver.tcp.connections == {}
