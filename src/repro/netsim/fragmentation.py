"""IPv4 fragmentation and reassembly, including the defragmentation cache.

This module is the substrate for the fragmentation-based DNS cache-poisoning
vector the paper builds on (Herzberg & Shulman, "Fragmentation Considered
Poisonous", CNS 2013).  The attack works because IPv4 reassembly groups
fragments only by (src, dst, protocol, IP-ID): an off-path attacker who can
predict the nameserver's IP-ID can plant a spoofed *second* fragment in the
victim resolver's reassembly buffer ahead of time; when the genuine first
fragment arrives it is reassembled with the attacker's tail, replacing the
benign DNS answer records with attacker-controlled ones.

Overlapping fragment data is resolved first-wins: bytes already in the
buffer are kept (BSD-style), which is what makes "plant the spoofed fragment
first" effective.  The predecessor attack on NTP itself ([1] in the paper)
depended on a *specific* overlap-resolution behaviour not present in modern
operating systems — one of the reasons the paper argues the DNS route is
more practical.

:func:`fragment_datagram`, the one UDP serialiser, writes the checksum into
every header, so a datagram no spoofed byte reached always matches it:
reassembly verifies only an unfragmented spoofed packet or a datagram that
first-wins spliced from a spoofed fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .packets import (
    IPV4_HEADER_SIZE,
    UDP_HEADER_SIZE,
    IPPacket,
    PacketError,
    UDPDatagram,
    udp_checksum,
)

#: Seconds an incomplete reassembly survives (a common stack default); the
#: poisoning attack relies on a planted fragment lasting until the genuine
#: first fragment arrives.
REASSEMBLY_TIMEOUT = 30.0
#: Reassemblies in progress per host; a new one beyond this evicts the oldest.
REASSEMBLY_CAPACITY = 1024


def fragment_datagram(datagram: UDPDatagram, ip_id: int, mtu: int) -> list[IPPacket]:
    """Fragment a UDP datagram into IPv4 packets that fit within ``mtu``.

    This is the one UDP serialiser.  The 8-byte UDP header, carrying the
    checksum over the pseudo-header and payload, occupies the first 8 bytes
    of the IP payload; fragments after the first contain raw payload bytes
    only, exactly as on the wire.  Fragment payload sizes are multiples of
    8 bytes (except the last), per RFC 791.

    Returns a single non-fragmented packet when the datagram fits in ``mtu``.
    """
    if mtu < IPV4_HEADER_SIZE + 8:
        raise PacketError(f"MTU {mtu} too small to carry any IPv4 payload")
    payload = datagram.payload
    length = UDP_HEADER_SIZE + len(payload)
    checksum = udp_checksum(datagram.src_ip, datagram.dst_ip, datagram.src_port,
                            datagram.dst_port, payload)
    wire = (datagram.src_port.to_bytes(2, "big") + datagram.dst_port.to_bytes(2, "big")
            + length.to_bytes(2, "big") + checksum.to_bytes(2, "big") + payload)
    max_ip_payload = mtu - IPV4_HEADER_SIZE
    if len(wire) <= max_ip_payload:
        return [IPPacket(src_ip=datagram.src_ip, dst_ip=datagram.dst_ip, ip_id=ip_id, payload=wire)]
    # Per-fragment payload must be a multiple of 8 bytes.
    step = max_ip_payload // 8 * 8
    return [IPPacket(src_ip=datagram.src_ip, dst_ip=datagram.dst_ip, ip_id=ip_id,
                     payload=wire[offset:offset + step], fragment_offset=offset,
                     more_fragments=offset + step < len(wire))
            for offset in range(0, len(wire), step)]


def parse_udp_wire(src_ip: str, dst_ip: str, wire: bytes,
                   verify: bool = True) -> tuple[UDPDatagram, bool]:
    """Parse reassembled UDP wire bytes into a :class:`UDPDatagram` and
    whether its header checksum holds (a checksum of 0 means the sender
    computed none, which RFC 768 allows over IPv4).  ``verify=False`` takes
    the checksum as holding: the caller knows no spoofed byte is in ``wire``."""
    if len(wire) < UDP_HEADER_SIZE:
        raise PacketError("truncated UDP datagram")
    src_port = int.from_bytes(wire[0:2], "big")
    dst_port = int.from_bytes(wire[2:4], "big")
    length = int.from_bytes(wire[4:6], "big")
    checksum = int.from_bytes(wire[6:8], "big")
    payload = wire[UDP_HEADER_SIZE:length] if length >= UDP_HEADER_SIZE else b""
    valid = (not verify or not checksum
             or checksum == udp_checksum(src_ip, dst_ip, src_port, dst_port, payload))
    return UDPDatagram(src_ip, dst_ip, src_port, dst_port, payload), valid


@dataclass
class _ReassemblyEntry:
    """State for one in-progress reassembly (one IP-ID)."""

    chunks: dict[int, bytes] = field(default_factory=dict)
    total_length: Optional[int] = None
    created_at: float = 0.0
    poisoned: bool = False
    checksum_compensated: bool = False


@dataclass
class ReassemblyResult:
    """Outcome of offering a fragment to the buffer."""

    datagram: Optional[UDPDatagram]
    poisoned: bool = False
    #: True when a spoofed fragment in the reassembly claimed to have fixed
    #: the UDP checksum (see :class:`repro.netsim.packets.IPPacket`).
    checksum_compensated: bool = False
    #: Whether the datagram's UDP header checksum holds (see
    #: :func:`parse_udp_wire`).
    checksum_ok: bool = True


class ReassemblyBuffer:
    """A per-host IPv4 defragmentation cache.

    Fragments are grouped by :attr:`IPPacket.reassembly_key`.  Entries time
    out after :data:`REASSEMBLY_TIMEOUT` simulated seconds; the poisoning
    attack relies on the spoofed fragment surviving in this cache until the
    genuine first fragment arrives.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, _ReassemblyEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def expire(self, now: float) -> None:
        """Drop reassembly state older than :data:`REASSEMBLY_TIMEOUT`."""
        stale = [key for key, entry in self._entries.items()
                 if now - entry.created_at > REASSEMBLY_TIMEOUT]
        for key in stale:
            del self._entries[key]

    def add_fragment(self, fragment: IPPacket, now: float) -> ReassemblyResult:
        """Offer a fragment; returns a completed datagram when reassembly finishes.

        Non-fragment packets pass straight through.  The checksum is checked
        only when the packet, or a fragment whose bytes first-wins kept, was
        spoofed: every other byte came from :func:`fragment_datagram`.
        """
        if not fragment.is_fragment:
            datagram, checksum_ok = parse_udp_wire(fragment.src_ip, fragment.dst_ip,
                                                   fragment.payload, fragment.spoofed)
            return ReassemblyResult(datagram=datagram, poisoned=fragment.spoofed,
                                    checksum_ok=checksum_ok)

        self.expire(now)
        key = fragment.reassembly_key
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= REASSEMBLY_CAPACITY:
                # Evict the oldest entry; a busy resolver behaves this way and
                # it bounds the attacker's window rather than extending it.
                oldest = min(self._entries, key=lambda k: self._entries[k].created_at)
                del self._entries[oldest]
            entry = _ReassemblyEntry(created_at=now)
            self._entries[key] = entry

        if self._store_non_overlapping(entry, fragment.fragment_offset, fragment.payload):
            # Only a fragment whose bytes first-wins kept can splice the datagram.
            entry.poisoned |= fragment.spoofed
            entry.checksum_compensated |= fragment.checksum_compensated
        if not fragment.more_fragments:
            end = fragment.fragment_offset + len(fragment.payload)
            if entry.total_length is None or end > entry.total_length:
                entry.total_length = end

        wire = self._try_complete(key, entry)
        if wire is None:
            return ReassemblyResult(datagram=None)
        datagram, checksum_ok = parse_udp_wire(fragment.src_ip, fragment.dst_ip, wire,
                                               entry.poisoned)
        return ReassemblyResult(datagram=datagram, poisoned=entry.poisoned,
                                checksum_compensated=entry.checksum_compensated,
                                checksum_ok=checksum_ok)

    @staticmethod
    def _store_non_overlapping(entry: _ReassemblyEntry, offset: int, payload: bytes) -> bool:
        """Insert only the byte ranges no earlier fragment covered (first wins).

        Returns whether any byte of ``payload`` was stored.
        """
        covered = sorted((o, o + len(c)) for o, c in entry.chunks.items())
        position = offset
        end = offset + len(payload)
        stored = False
        for cov_start, cov_end in covered:
            if cov_end <= position:
                continue
            if cov_start >= end:
                break
            if cov_start > position:
                entry.chunks[position] = payload[position - offset:cov_start - offset]
                stored = True
            position = max(position, cov_end)
        if position < end:
            entry.chunks[position] = payload[position - offset:]
            stored = True
        return stored

    def _try_complete(self, key: tuple, entry: _ReassemblyEntry) -> Optional[bytes]:
        """Return the reassembled wire bytes if the byte range is fully covered."""
        if entry.total_length is None:
            return None
        covered = sorted(entry.chunks.items())
        position = 0
        buffer = bytearray(entry.total_length)
        for offset, chunk in covered:
            if offset > position:
                return None  # hole
            usable = chunk[: max(0, entry.total_length - offset)]
            buffer[offset:offset + len(usable)] = usable
            position = max(position, offset + len(usable))
        if position < entry.total_length:
            return None
        del self._entries[key]
        return bytes(buffer)
