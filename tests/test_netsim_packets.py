"""Unit tests for the IPv4/UDP packet models."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.netsim.fragmentation import fragment_datagram, parse_udp_wire
from repro.netsim.packets import (
    DEFAULT_MTU,
    IPV4_HEADER_SIZE,
    MINIMUM_IPV4_MTU,
    UDP_HEADER_SIZE,
    IPPacket,
    PacketError,
    UDPDatagram,
    udp_checksum,
)
from repro.netsim.transport import TCPSegment


def make_datagram(payload=b"hello", src="10.0.0.1", dst="10.0.0.2"):
    return UDPDatagram(src_ip=src, dst_ip=dst, src_port=1234, dst_port=53, payload=payload)


def test_constants_are_standard():
    assert IPV4_HEADER_SIZE == 20
    assert UDP_HEADER_SIZE == 8
    assert DEFAULT_MTU == 1500
    assert MINIMUM_IPV4_MTU == 68


def test_datagram_size_includes_header():
    assert make_datagram(b"x" * 100).size == 108


def test_datagram_port_validation():
    with pytest.raises(PacketError):
        UDPDatagram("10.0.0.1", "10.0.0.2", -1, 53, b"")
    with pytest.raises(PacketError):
        UDPDatagram("10.0.0.1", "10.0.0.2", 53, 70000, b"")


def test_checksum_is_deterministic():
    a = udp_checksum("10.0.0.1", "10.0.0.2", 1, 2, b"payload")
    b = udp_checksum("10.0.0.1", "10.0.0.2", 1, 2, b"payload")
    assert a == b


def test_checksum_changes_with_payload():
    base = udp_checksum("10.0.0.1", "10.0.0.2", 1, 2, b"payload")
    assert udp_checksum("10.0.0.1", "10.0.0.2", 1, 2, b"payloae") != base


def test_checksum_changes_with_addresses():
    base = udp_checksum("10.0.0.1", "10.0.0.2", 1, 2, b"payload")
    assert udp_checksum("10.0.0.3", "10.0.0.2", 1, 2, b"payload") != base


def test_checksum_never_zero():
    # UDP reserves 0 to mean "no checksum"; ours maps 0 to 0xFFFF.
    for payload in (b"", b"\x00", b"\xff\xff"):
        assert udp_checksum("0.0.0.0", "0.0.0.0", 0, 0, payload) != 0


def encode(datagram):
    """The datagram's UDP wire bytes (header, checksum included, + payload)."""
    [packet] = fragment_datagram(datagram, ip_id=1, mtu=DEFAULT_MTU)
    return packet.payload


def test_header_checksum_roundtrip():
    datagram = make_datagram()
    wire = encode(datagram)
    assert int.from_bytes(wire[6:8], "big") == udp_checksum(
        datagram.src_ip, datagram.dst_ip, datagram.src_port, datagram.dst_port, datagram.payload)
    assert parse_udp_wire(datagram.src_ip, datagram.dst_ip, wire) == (datagram, True)


def test_checksum_invalid_after_payload_tamper():
    datagram = make_datagram(b"original payload")
    wire = bytearray(encode(datagram))
    wire[UDP_HEADER_SIZE] ^= 0x01
    parsed, checksum_ok = parse_udp_wire(datagram.src_ip, datagram.dst_ip, bytes(wire))
    assert parsed.payload != datagram.payload
    assert not checksum_ok


def test_zero_checksum_means_none_and_is_accepted():
    # RFC 768: a transmitted checksum of 0 means the sender computed none.
    datagram = make_datagram(b"original payload")
    wire = bytearray(encode(datagram))
    wire[6:8] = b"\x00\x00"
    wire[UDP_HEADER_SIZE] ^= 0x01
    _, checksum_ok = parse_udp_wire(datagram.src_ip, datagram.dst_ip, bytes(wire))
    assert checksum_ok


def test_ip_packet_total_size():
    packet = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"x" * 50)
    assert packet.total_size == IPV4_HEADER_SIZE + 50


def test_ip_packet_fragment_flags():
    plain = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"x")
    assert not plain.is_fragment
    first = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"x",
                     more_fragments=True)
    assert first.is_fragment and first.first_fragment()
    tail = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"x" * 8,
                    fragment_offset=8)
    assert tail.is_fragment and not tail.first_fragment()


def test_ip_packet_reassembly_key_excludes_ports():
    a = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=77, payload=b"a")
    b = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=77, payload=b"completely different")
    assert a.reassembly_key == b.reassembly_key


def test_ip_packet_reassembly_key_differs_by_ipid():
    a = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=77, payload=b"a")
    b = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=78, payload=b"a")
    assert a.reassembly_key != b.reassembly_key


def test_ip_packet_ipid_range_enforced():
    with pytest.raises(PacketError):
        IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=0x10000, payload=b"")


def test_ip_packet_offset_must_be_8_byte_aligned():
    with pytest.raises(PacketError):
        IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"", fragment_offset=4)


def test_ip_packet_negative_offset_rejected():
    with pytest.raises(PacketError):
        IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"", fragment_offset=-8)


def test_spoofed_flag_does_not_affect_equality():
    a = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"x")
    b = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", ip_id=1, payload=b"x", spoofed=True)
    assert a == b


#: One value of each wire class, and a field change that makes another value.
VALUES = [
    (IPPacket("10.0.0.1", "10.0.0.2", ip_id=1, payload=b"x", fragment_offset=8,
              more_fragments=True), {"ip_id": 2}),
    (UDPDatagram("10.0.0.1", "10.0.0.2", 1234, 53, b"query"), {"dst_port": 54}),
    (TCPSegment(40000, 853, seq=1, ack=2, flags=0x18, payload=b"data"), {"seq": 3}),
]


@pytest.mark.parametrize(("value", "change"), VALUES,
                         ids=["IPPacket", "UDPDatagram", "TCPSegment"])
def test_wire_objects_are_hashable_values(value, change):
    twin = replace(value)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    other = replace(value, **change)
    assert other != value
    assert value == replace(other, **{name: getattr(value, name) for name in change})
    # replace() leaves the original as it was.
    assert all(getattr(value, name) != new for name, new in change.items())
    assert len({value, twin, other}) == 2


def test_attacker_annotations_stay_out_of_equality_and_hash():
    genuine = IPPacket("10.0.0.1", "10.0.0.2", ip_id=5, payload=b"answer")
    forged = replace(genuine, spoofed=True, checksum_compensated=True)
    assert forged == genuine and hash(forged) == hash(genuine)
    assert (genuine.spoofed, genuine.checksum_compensated) == (False, False)
    assert {genuine: "kept"}[forged] == "kept"


@pytest.mark.parametrize("bad", [{"ip_id": -1}, {"ip_id": 0x10000}, {"fragment_offset": 12},
                                 {"fragment_offset": -8}])
def test_replace_validates_a_packet_like_the_constructor(bad):
    packet = IPPacket("10.0.0.1", "10.0.0.2", ip_id=1, payload=b"x")
    with pytest.raises(PacketError):
        replace(packet, **bad)


@pytest.mark.parametrize("port", [{"src_port": -1}, {"dst_port": 0x10000}])
def test_replace_validates_a_datagram_like_the_constructor(port):
    with pytest.raises(PacketError):
        replace(make_datagram(), **port)
