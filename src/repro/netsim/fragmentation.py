"""IPv4 fragmentation and reassembly, including the defragmentation cache.

This module is the substrate for the fragmentation-based DNS cache-poisoning
vector the paper builds on (Herzberg & Shulman, "Fragmentation Considered
Poisonous", CNS 2013).  The attack works because IPv4 reassembly groups
fragments only by (src, dst, protocol, IP-ID): an off-path attacker who can
predict the nameserver's IP-ID can plant a spoofed *second* fragment in the
victim resolver's reassembly buffer ahead of time; when the genuine first
fragment arrives it is reassembled with the attacker's tail, replacing the
benign DNS answer records with attacker-controlled ones.

Two reassembly overlap policies are provided because the predecessor attack
on NTP itself ([1] in the paper) depended on a *specific* overlap-resolution
behaviour not present in modern operating systems — one of the reasons the
paper argues the DNS route is more practical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .packets import IPV4_HEADER_SIZE, UDP_HEADER_SIZE, IPPacket, PacketError, UDPDatagram


class OverlapPolicy(enum.Enum):
    """How a reassembler resolves overlapping fragment data.

    ``FIRST_WINS``
        Data already present in the buffer is kept (BSD-style).  This is the
        policy that makes "plant the spoofed fragment first" effective.
    ``LAST_WINS``
        Later fragments overwrite earlier data (old Linux behaviour).
    ``DROP``
        Any overlap discards the whole reassembly (modern hardened stacks).
    """

    FIRST_WINS = "first-wins"
    LAST_WINS = "last-wins"
    DROP = "drop"


def fragment_datagram(datagram: UDPDatagram, ip_id: int, mtu: int) -> list[IPPacket]:
    """Fragment a UDP datagram into IPv4 packets that fit within ``mtu``.

    The UDP header occupies the first 8 bytes of the IP payload; fragments
    after the first contain raw payload bytes only, exactly as on the wire.
    Fragment payload sizes are multiples of 8 bytes (except the last), per
    RFC 791.

    Returns a single non-fragmented packet when the datagram fits in ``mtu``.
    """
    if mtu < IPV4_HEADER_SIZE + 8:
        raise PacketError(f"MTU {mtu} too small to carry any IPv4 payload")
    wire = _udp_wire_bytes(datagram)
    max_ip_payload = mtu - IPV4_HEADER_SIZE
    if len(wire) <= max_ip_payload:
        return [IPPacket(src_ip=datagram.src_ip, dst_ip=datagram.dst_ip, ip_id=ip_id, payload=wire)]
    # Per-fragment payload must be a multiple of 8 bytes.
    step = max_ip_payload // 8 * 8
    return [IPPacket(src_ip=datagram.src_ip, dst_ip=datagram.dst_ip, ip_id=ip_id,
                     payload=wire[offset:offset + step], fragment_offset=offset,
                     more_fragments=offset + step < len(wire))
            for offset in range(0, len(wire), step)]


def _udp_wire_bytes(datagram: UDPDatagram) -> bytes:
    """Serialise the UDP header + payload (checksum carried separately).

    The simulation keeps the checksum as structured metadata rather than
    packing it into these bytes; :func:`reassemble_udp` reconstructs a
    :class:`UDPDatagram` carrying the original checksum so validation still
    reflects whether the *payload bytes* were tampered with.
    """
    header = (
        datagram.src_port.to_bytes(2, "big")
        + datagram.dst_port.to_bytes(2, "big")
        + (UDP_HEADER_SIZE + len(datagram.payload)).to_bytes(2, "big")
        + (datagram.checksum or 0).to_bytes(2, "big")
    )
    return header + datagram.payload


def parse_udp_wire(src_ip: str, dst_ip: str, wire: bytes) -> UDPDatagram:
    """Parse reassembled UDP wire bytes back into a :class:`UDPDatagram`."""
    if len(wire) < UDP_HEADER_SIZE:
        raise PacketError("truncated UDP datagram")
    src_port = int.from_bytes(wire[0:2], "big")
    dst_port = int.from_bytes(wire[2:4], "big")
    length = int.from_bytes(wire[4:6], "big")
    checksum = int.from_bytes(wire[6:8], "big")
    payload = wire[UDP_HEADER_SIZE:length] if length >= UDP_HEADER_SIZE else b""
    return UDPDatagram(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        payload=payload,
        checksum=checksum or None,
    )


@dataclass
class _ReassemblyEntry:
    """State for one in-progress reassembly (one IP-ID)."""

    chunks: dict[int, bytes] = field(default_factory=dict)
    total_length: Optional[int] = None
    created_at: float = 0.0
    poisoned: bool = False
    checksum_compensated: bool = False
    dropped: bool = False


@dataclass
class ReassemblyResult:
    """Outcome of offering a fragment to the buffer."""

    datagram: Optional[UDPDatagram]
    poisoned: bool = False
    #: True when a spoofed fragment in the reassembly claimed to have fixed
    #: the UDP checksum (see :class:`repro.netsim.packets.IPPacket`).
    checksum_compensated: bool = False


class ReassemblyBuffer:
    """A per-host IPv4 defragmentation cache.

    Fragments are grouped by :attr:`IPPacket.reassembly_key`.  Entries time
    out after ``timeout`` simulated seconds (default 30 s, a common value);
    the poisoning attack relies on the spoofed fragment surviving in this
    cache until the genuine first fragment arrives.
    """

    def __init__(self, overlap_policy: OverlapPolicy = OverlapPolicy.FIRST_WINS,
                 timeout: float = 30.0, capacity: int = 1024) -> None:
        self.overlap_policy = overlap_policy
        self.timeout = timeout
        self.capacity = capacity
        self._entries: dict[tuple, _ReassemblyEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def expire(self, now: float) -> None:
        """Drop reassembly state older than :attr:`timeout`."""
        stale = [key for key, entry in self._entries.items() if now - entry.created_at > self.timeout]
        for key in stale:
            del self._entries[key]

    def add_fragment(self, fragment: IPPacket, now: float) -> ReassemblyResult:
        """Offer a fragment; returns a completed datagram when reassembly finishes.

        Non-fragment packets pass straight through.
        """
        if not fragment.is_fragment:
            datagram = parse_udp_wire(fragment.src_ip, fragment.dst_ip, fragment.payload)
            return ReassemblyResult(datagram=datagram, poisoned=fragment.spoofed)

        self.expire(now)
        key = fragment.reassembly_key
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.capacity:
                # Evict the oldest entry; a busy resolver behaves this way and
                # it bounds the attacker's window rather than extending it.
                oldest = min(self._entries, key=lambda k: self._entries[k].created_at)
                del self._entries[oldest]
            entry = _ReassemblyEntry(created_at=now)
            self._entries[key] = entry
        if entry.dropped:
            return ReassemblyResult(datagram=None)

        overlap = self._store_chunk(entry, fragment)
        if overlap and self.overlap_policy is OverlapPolicy.DROP:
            entry.dropped = True
            entry.chunks.clear()
            return ReassemblyResult(datagram=None)
        if fragment.spoofed:
            entry.poisoned = True
        if fragment.checksum_compensated:
            entry.checksum_compensated = True
        if not fragment.more_fragments:
            end = fragment.fragment_offset + len(fragment.payload)
            if entry.total_length is None or end > entry.total_length:
                entry.total_length = end

        datagram = self._try_complete(key, entry)
        if datagram is None:
            return ReassemblyResult(datagram=None)
        return ReassemblyResult(datagram=datagram, poisoned=entry.poisoned,
                                checksum_compensated=entry.checksum_compensated)

    def _store_chunk(self, entry: _ReassemblyEntry, fragment: IPPacket) -> bool:
        """Store a fragment's bytes, resolving overlaps per policy.

        Returns ``True`` when the fragment overlapped existing data.
        """
        offset = fragment.fragment_offset
        overlap = False
        for existing_offset, existing in entry.chunks.items():
            if offset < existing_offset + len(existing) and existing_offset < offset + len(fragment.payload):
                overlap = True
                break
        if overlap and self.overlap_policy is OverlapPolicy.FIRST_WINS:
            # Keep existing bytes; only store the non-overlapping tail/head.
            self._store_non_overlapping(entry, offset, fragment.payload)
            return True
        entry.chunks[offset] = fragment.payload
        return overlap

    def _store_non_overlapping(self, entry: _ReassemblyEntry, offset: int, payload: bytes) -> None:
        """Insert only the byte ranges not already covered (FIRST_WINS)."""
        covered = sorted((o, o + len(c)) for o, c in entry.chunks.items())
        position = offset
        end = offset + len(payload)
        for cov_start, cov_end in covered:
            if cov_end <= position:
                continue
            if cov_start >= end:
                break
            if cov_start > position:
                entry.chunks[position] = payload[position - offset:cov_start - offset]
            position = max(position, cov_end)
        if position < end:
            entry.chunks[position] = payload[position - offset:]

    def _try_complete(self, key: tuple, entry: _ReassemblyEntry) -> Optional[UDPDatagram]:
        """Return the reassembled datagram if the byte range is fully covered."""
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
        src_ip, dst_ip, _, _ = key
        del self._entries[key]
        return parse_udp_wire(src_ip, dst_ip, bytes(buffer))
