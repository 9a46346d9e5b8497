"""IPv4 and UDP packet models.

Only the fields that matter for the reproduced attacks are modelled, but they
are modelled faithfully:

* the IPv4 identification field (``ip_id``) — the value an off-path attacker
  must predict to plant a matching spoofed fragment in a resolver's
  defragmentation cache;
* fragmentation metadata (fragment offset, more-fragments flag) — the basis
  of the Herzberg/Shulman poisoning technique the paper builds on;
* the UDP checksum — which covers the whole datagram and therefore must still
  validate after the attacker's fragment replaces part of the payload.  It
  travels only in the UDP header bytes, as on the wire:
  :func:`repro.netsim.fragmentation.fragment_datagram` writes it, and
  reassembly verifies it only where a spoofed packet's bytes landed.

Payloads are ``bytes``; the DNS and NTP layers encode/decode real wire
formats, so sizes (and therefore "does this response fragment at MTU 1500 /
548 / 68?") are exact.

Packets are plain dataclass values, not frozen (a frozen one costs 3x to
build): the constructor validates, ``dataclasses.replace`` copies, no code
assigns a field, and equality and hash ignore ``spoofed``/``checksum_compensated``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addresses import ip_to_int

IPV4_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8
#: Conventional Ethernet MTU; a DNS/UDP payload of up to 1472 bytes fits
#: unfragmented (1500 - 20 IPv4 - 8 UDP).
DEFAULT_MTU = 1500
#: The minimum MTU an IPv4 host must accept (RFC 791); the paper's resolver
#: study probes acceptance of fragments this small.
MINIMUM_IPV4_MTU = 68

PROTO_UDP = 17
PROTO_TCP = 6


class PacketError(ValueError):
    """Raised for malformed packet construction or invalid fragmentation."""


def udp_checksum(src_ip: str, dst_ip: str, src_port: int, dst_port: int, payload: bytes) -> int:
    """The real ones'-complement Internet checksum over the UDP pseudo-header
    and payload: it covers the *entire* datagram, so a spliced fragment must
    compensate it or the datagram is dropped."""
    length = UDP_HEADER_SIZE + len(payload)
    data = (
        ip_to_int(src_ip).to_bytes(4, "big")
        + ip_to_int(dst_ip).to_bytes(4, "big")
        + bytes([0, PROTO_UDP])
        + length.to_bytes(2, "big")
        + src_port.to_bytes(2, "big")
        + dst_port.to_bytes(2, "big")
        + length.to_bytes(2, "big")
        + b"\x00\x00"
        + payload
    )
    if len(data) % 2:
        data += b"\x00"
    # The ones'-complement sum of the 16-bit words equals the whole buffer
    # read as one big-endian integer reduced mod 0xFFFF (2^16 ≡ 1 mod 65535),
    # which lets CPython do the summation in C instead of a per-word loop —
    # this function runs once per datagram on the simulated wire.
    total = int.from_bytes(data, "big") % 0xFFFF
    checksum = (~total) & 0xFFFF
    return checksum or 0xFFFF


@dataclass(unsafe_hash=True)
class UDPDatagram:
    """A UDP datagram as seen by application-layer code (DNS, NTP)."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise PacketError(f"port out of range: {port}")

    @property
    def size(self) -> int:
        """Total UDP datagram size (header + payload) in bytes."""
        return UDP_HEADER_SIZE + len(self.payload)


@dataclass(unsafe_hash=True)
class IPPacket:
    """An IPv4 packet (possibly a fragment) carrying part of a UDP datagram.

    ``fragment_offset`` is expressed in bytes (the wire format uses 8-byte
    units; :mod:`repro.netsim.fragmentation` enforces the 8-byte alignment
    rule when splitting).
    """

    src_ip: str
    dst_ip: str
    ip_id: int
    payload: bytes
    protocol: int = PROTO_UDP
    fragment_offset: int = 0
    more_fragments: bool = False
    ttl: int = 64
    spoofed: bool = field(default=False, compare=False)
    #: Set by an attacker that crafted this (spoofed) fragment so that the
    #: reassembled datagram's UDP checksum still validates despite the splice
    #: — the "checksum fixing" step of fragmentation poisoning.
    checksum_compensated: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.ip_id <= 0xFFFF:
            raise PacketError(f"ip_id out of range: {self.ip_id}")
        if self.fragment_offset < 0:
            raise PacketError("negative fragment offset")
        if self.fragment_offset % 8 != 0:
            # Offsets are carried in 8-byte units on the wire.
            raise PacketError("fragment offset must be a multiple of 8 bytes")

    @property
    def total_size(self) -> int:
        """On-the-wire size of this packet (IPv4 header + payload)."""
        return IPV4_HEADER_SIZE + len(self.payload)

    @property
    def is_fragment(self) -> bool:
        """True when this packet is part of a fragmented datagram."""
        return self.more_fragments or self.fragment_offset > 0

    @property
    def reassembly_key(self) -> tuple:
        """The tuple IPv4 reassembly uses to group fragments.

        RFC 791 reassembles on (source, destination, protocol, identification)
        — crucially *not* on any transport-layer field, which is what lets an
        off-path attacker's spoofed fragment be glued onto a genuine first
        fragment from the nameserver.
        """
        return (self.src_ip, self.dst_ip, self.protocol, self.ip_id)

    def first_fragment(self) -> bool:
        return self.fragment_offset == 0
