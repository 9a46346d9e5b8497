"""Unit tests for IPv4 fragmentation, reassembly and the defrag cache."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.netsim.fragmentation import (
    REASSEMBLY_CAPACITY,
    REASSEMBLY_TIMEOUT,
    ReassemblyBuffer,
    fragment_datagram,
    parse_udp_wire,
)
from repro.netsim.packets import IPPacket, PacketError, UDPDatagram, udp_checksum


def make_datagram(size=1200, src="192.0.2.53", dst="192.0.2.1"):
    payload = bytes((i * 7) % 256 for i in range(size))
    return UDPDatagram(src_ip=src, dst_ip=dst, src_port=53, dst_port=4242,
                       payload=payload)


def test_small_datagram_not_fragmented():
    datagram = make_datagram(size=100)
    fragments = fragment_datagram(datagram, ip_id=1, mtu=1500)
    assert len(fragments) == 1
    assert not fragments[0].is_fragment


def test_large_datagram_fragmented_at_low_mtu():
    datagram = make_datagram(size=1200)
    fragments = fragment_datagram(datagram, ip_id=1, mtu=548)
    assert len(fragments) >= 2
    assert fragments[0].first_fragment()
    assert fragments[-1].more_fragments is False
    assert all(f.more_fragments for f in fragments[:-1])


def test_fragment_payloads_fit_mtu():
    datagram = make_datagram(size=3000)
    for fragment in fragment_datagram(datagram, ip_id=9, mtu=576):
        assert fragment.total_size <= 576


def test_fragment_offsets_are_contiguous_and_aligned():
    datagram = make_datagram(size=2000)
    fragments = fragment_datagram(datagram, ip_id=1, mtu=548)
    position = 0
    for fragment in fragments:
        assert fragment.fragment_offset == position
        assert fragment.fragment_offset % 8 == 0
        position += len(fragment.payload)
    assert position == 8 + len(datagram.payload)  # UDP header + payload


def test_fragments_share_ip_id_and_addresses():
    datagram = make_datagram(size=2000)
    fragments = fragment_datagram(datagram, ip_id=321, mtu=548)
    assert len({f.ip_id for f in fragments}) == 1
    assert len({f.reassembly_key for f in fragments}) == 1


def test_too_small_mtu_rejected():
    with pytest.raises(PacketError):
        fragment_datagram(make_datagram(100), ip_id=1, mtu=20)


def test_parse_udp_wire_roundtrip():
    datagram = make_datagram(size=64)
    fragments = fragment_datagram(datagram, ip_id=1, mtu=1500)
    wire = fragments[0].payload
    parsed, checksum_ok = parse_udp_wire(datagram.src_ip, datagram.dst_ip, wire)
    assert parsed == datagram
    assert checksum_ok
    assert int.from_bytes(wire[6:8], "big") == udp_checksum(
        datagram.src_ip, datagram.dst_ip, datagram.src_port, datagram.dst_port, datagram.payload)


def reassemble_all(fragments, buffer=None, now=0.0):
    buffer = buffer or ReassemblyBuffer()
    result = None
    for fragment in fragments:
        result = buffer.add_fragment(fragment, now)
        if result.datagram is not None:
            return result
    return result


def test_reassembly_in_order():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    result = reassemble_all(fragments)
    assert result.datagram is not None
    assert result.datagram.payload == datagram.payload
    assert result.checksum_ok
    assert not result.poisoned


def test_reassembly_out_of_order():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    result = reassemble_all(list(reversed(fragments)))
    assert result.datagram is not None
    assert result.datagram.payload == datagram.payload


def test_incomplete_reassembly_returns_nothing():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    buffer = ReassemblyBuffer()
    result = buffer.add_fragment(fragments[0], 0.0)
    assert result.datagram is None
    assert len(buffer) == 1


def test_non_fragment_passes_straight_through():
    datagram = make_datagram(size=100)
    [packet] = fragment_datagram(datagram, ip_id=5, mtu=1500)
    buffer = ReassemblyBuffer()
    result = buffer.add_fragment(packet, 0.0)
    assert result.datagram is not None
    assert result.datagram.payload == datagram.payload
    assert len(buffer) == 0


def test_different_ip_ids_do_not_mix():
    datagram = make_datagram(size=1500)
    a = fragment_datagram(datagram, ip_id=1, mtu=548)
    b = fragment_datagram(datagram, ip_id=2, mtu=548)
    buffer = ReassemblyBuffer()
    assert buffer.add_fragment(a[0], 0.0).datagram is None
    assert buffer.add_fragment(b[1], 0.0).datagram is None
    assert len(buffer) == 2


def test_expiry_clears_stale_entries():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=1, mtu=548)
    buffer = ReassemblyBuffer()
    buffer.add_fragment(fragments[0], now=0.0)
    buffer.expire(now=REASSEMBLY_TIMEOUT)
    assert len(buffer) == 1
    buffer.expire(now=REASSEMBLY_TIMEOUT + 1.0)
    assert len(buffer) == 0


def test_stale_entry_does_not_complete_after_timeout():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=1, mtu=548)
    buffer = ReassemblyBuffer()
    buffer.add_fragment(fragments[0], now=0.0)
    # the rest arrive after the timeout: the first fragment is gone
    result = None
    for fragment in fragments[1:]:
        result = buffer.add_fragment(fragment, now=40.0)
    assert result.datagram is None


def test_capacity_eviction_of_oldest():
    buffer = ReassemblyBuffer()
    first_fragment = fragment_datagram(make_datagram(size=1500), ip_id=0, mtu=548)[0]
    for ip_id in range(REASSEMBLY_CAPACITY + 1):
        buffer.add_fragment(replace(first_fragment, ip_id=ip_id), now=ip_id * 0.001)
    assert len(buffer) == REASSEMBLY_CAPACITY
    # The oldest entry (IP-ID 0) was evicted: its tail now starts a fresh
    # reassembly instead of completing one.
    tail = fragment_datagram(make_datagram(size=1500), ip_id=0, mtu=548)[1]
    assert buffer.add_fragment(tail, now=2.0).datagram is None
    assert len(buffer) == REASSEMBLY_CAPACITY


def test_spoofed_fragment_marks_result_poisoned():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    spoofed_tail = IPPacket(
        src_ip=fragments[1].src_ip,
        dst_ip=fragments[1].dst_ip,
        ip_id=fragments[1].ip_id,
        payload=fragments[1].payload,
        fragment_offset=fragments[1].fragment_offset,
        more_fragments=fragments[1].more_fragments,
        spoofed=True,
    )
    buffer = ReassemblyBuffer()
    buffer.add_fragment(spoofed_tail, 0.0)       # planted ahead of time
    result = buffer.add_fragment(fragments[0], 0.1)
    if len(fragments) > 2:
        for fragment in fragments[2:]:
            result = buffer.add_fragment(fragment, 0.1)
    assert result.datagram is not None
    assert result.poisoned


def test_first_wins_overlap_keeps_planted_data():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    genuine_tail = fragments[1]
    forged_payload = bytes(b ^ 0xFF for b in genuine_tail.payload)
    forged_tail = IPPacket(
        src_ip=genuine_tail.src_ip,
        dst_ip=genuine_tail.dst_ip,
        ip_id=genuine_tail.ip_id,
        payload=forged_payload,
        fragment_offset=genuine_tail.fragment_offset,
        more_fragments=genuine_tail.more_fragments,
        spoofed=True,
    )
    buffer = ReassemblyBuffer()
    buffer.add_fragment(forged_tail, 0.0)
    result = None
    for fragment in fragments:
        result = buffer.add_fragment(fragment, 0.1)
        if result.datagram is not None:
            break
    assert result.datagram is not None
    # The forged bytes survived the overlap with the genuine tail.  The
    # fragment starts at wire offset 520; the UDP header occupies the first
    # 8 wire bytes, so in the application payload it covers [512, 512+len).
    start = genuine_tail.fragment_offset - 8
    assert result.datagram.payload[start:start + len(forged_payload)] == forged_payload
    assert result.poisoned
    # The genuine header's checksum does not cover the forged bytes.
    assert not result.checksum_ok
    assert not result.checksum_compensated


def test_duplicate_fragment_overlap_still_reassembles():
    # An exact duplicate of a fragment overlaps it fully; first-wins keeps
    # the same bytes and the reassembly completes instead of being dropped.
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    buffer = ReassemblyBuffer()
    buffer.add_fragment(fragments[1], 0.0)
    results = [buffer.add_fragment(fragment, 0.1) for fragment in fragments]
    completed = [result for result in results if result.datagram is not None]
    assert len(completed) == 1
    assert completed[0].datagram == datagram
    assert completed[0].checksum_ok
    assert not completed[0].poisoned
    assert len(buffer) == 0


def test_later_forged_overlap_does_not_overwrite():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    genuine_tail = fragments[1]
    forged_tail = IPPacket(
        src_ip=genuine_tail.src_ip,
        dst_ip=genuine_tail.dst_ip,
        ip_id=genuine_tail.ip_id,
        payload=bytes(b ^ 0xAA for b in genuine_tail.payload),
        fragment_offset=genuine_tail.fragment_offset,
        more_fragments=genuine_tail.more_fragments,
        spoofed=True,
    )
    buffer = ReassemblyBuffer()
    # genuine tail first, forged second: first-wins keeps the genuine bytes
    buffer.add_fragment(genuine_tail, 0.0)
    buffer.add_fragment(forged_tail, 0.0)
    result = buffer.add_fragment(fragments[0], 0.1)
    for fragment in fragments[2:]:
        if result.datagram is None:
            result = buffer.add_fragment(fragment, 0.1)
    assert result.datagram is not None
    assert result.datagram.payload == datagram.payload
    assert result.checksum_ok
    assert result.poisoned is False


def test_later_compensated_duplicate_flags_nothing():
    # A forged, checksum-compensated copy that arrives after the genuine
    # fragment keeps none of its bytes, so neither flag may reach the result.
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    forged_copy = replace(fragments[1], spoofed=True, checksum_compensated=True)
    buffer = ReassemblyBuffer()
    buffer.add_fragment(fragments[1], 0.0)
    buffer.add_fragment(forged_copy, 0.0)
    result = buffer.add_fragment(fragments[0], 0.1)
    for fragment in fragments[2:]:
        if result.datagram is None:
            result = buffer.add_fragment(fragment, 0.1)
    assert result.datagram == datagram
    assert result.checksum_ok
    assert result.poisoned is False
    assert result.checksum_compensated is False


def test_forged_fragment_kept_only_in_a_gap_still_poisons():
    # The forged fragment spans the first two fragments' range; the genuine
    # second fragment is already held, so first-wins keeps only the forged
    # bytes of the gap before it, and that part alone splices the datagram.
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    head, second = fragments[0], fragments[1]
    genuine_span = head.payload + second.payload
    forged_span = genuine_span[:8] + bytes(b ^ 0x55 for b in genuine_span[8:])
    forged = replace(head, payload=forged_span, spoofed=True)
    buffer = ReassemblyBuffer()
    buffer.add_fragment(second, 0.0)
    buffer.add_fragment(forged, 0.0)
    result = buffer.add_fragment(head, 0.1)
    for fragment in fragments[2:]:
        if result.datagram is None:
            result = buffer.add_fragment(fragment, 0.1)
    assert result.datagram is not None
    gap = len(head.payload) - 8  # application bytes the forged head supplied
    assert result.datagram.payload[:gap] == forged_span[8:len(head.payload)]
    assert result.datagram.payload[gap:] == datagram.payload[gap:]
    assert result.poisoned is True
    assert not result.checksum_ok


def test_completed_counter_increments():
    datagram = make_datagram(size=1500)
    buffer = ReassemblyBuffer()
    completed = [result.datagram
                 for ip_id in (1, 2, 3)
                 for fragment in fragment_datagram(datagram, ip_id=ip_id, mtu=548)
                 if (result := buffer.add_fragment(fragment, 0.0)).datagram is not None]
    assert [done.payload for done in completed] == [datagram.payload] * 3
    assert len(buffer) == 0


def test_checksum_compensated_flag_propagates():
    datagram = make_datagram(size=1500)
    fragments = fragment_datagram(datagram, ip_id=5, mtu=548)
    compensated = IPPacket(
        src_ip=fragments[1].src_ip,
        dst_ip=fragments[1].dst_ip,
        ip_id=fragments[1].ip_id,
        payload=fragments[1].payload,
        fragment_offset=fragments[1].fragment_offset,
        more_fragments=fragments[1].more_fragments,
        spoofed=True,
        checksum_compensated=True,
    )
    buffer = ReassemblyBuffer()
    buffer.add_fragment(compensated, 0.0)
    result = buffer.add_fragment(fragments[0], 0.1)
    for fragment in fragments[2:]:
        if result.datagram is None:
            result = buffer.add_fragment(fragment, 0.1)
    assert result.datagram is not None
    assert result.checksum_compensated
