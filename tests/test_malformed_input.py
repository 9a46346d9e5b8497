"""Off-path garbage never stops a simulation, and each drop is counted once.

Two gates:

* names a query decodes but its reply could not encode (over 255 bytes, an
  empty label from a ``.`` byte inside a label) are malformed at decode, on
  UDP and on a DoT stream alike;
* hypothesis-drawn payloads at every UDP port of an attack testbed and of
  the default testbed: ``Simulator.run`` never raises, and
  ``dns.malformed`` + ``ntp.malformed`` rise by one exactly when the
  receiver's codec rejects the payload.
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
from repro.dns.transport import DOT_PORT, frame_dns
from repro.dns.wire import WireFormatError
from repro.experiments import TestbedConfig, build_testbed
from repro.netsim.packets import UDPDatagram
from repro.netsim.transport import SecureChannel
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
    assert server.queries_answered["dot"] == 0


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
               (testbed.benign_servers[0].address, 40000, NTP_PORT, NTPPacket.decode),
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
