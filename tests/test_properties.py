"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import math
from dataclasses import replace
from statistics import mean

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.security_analysis import hypergeometric_pmf, hypergeometric_tail
from repro.core.selection import ChronosConfig, panic_select, trim_offsets
from repro.dns.message import (
    DNSMessage,
    max_a_records_for_payload,
    response_size_for_a_records,
)
from repro.dns.records import a_record
from repro.dns.wire import decode_name, encode_name
from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.netsim.fragmentation import ReassemblyBuffer, fragment_datagram
from repro.netsim.packets import UDPDatagram, udp_checksum
from repro.ntp.packet import NTPMode, NTPPacket
from repro.ntp.timestamps import ntp_to_unix, unix_to_ntp

# -- strategies --------------------------------------------------------------------------

ip_addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(int_to_ip)

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
                 max_size=20).filter(lambda s: not s.startswith("-"))
domain_names = st.lists(labels, min_size=1, max_size=4).map(".".join)

offsets = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


# -- addresses ----------------------------------------------------------------------------

@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ip_int_roundtrip(value):
    assert ip_to_int(int_to_ip(value)) == value


@given(address=ip_addresses)
def test_ip_string_roundtrip(address):
    assert int_to_ip(ip_to_int(address)) == address


# -- DNS names and messages ------------------------------------------------------------------

@given(name=domain_names)
def test_name_encode_decode_roundtrip(name):
    decoded, consumed = decode_name(encode_name(name), 0)
    assert decoded == name
    assert consumed == len(encode_name(name))


@given(name=domain_names, count=st.integers(min_value=0, max_value=60),
       ttl=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_dns_response_roundtrip(name, count, ttl):
    query = DNSMessage.query(0x0102, name)
    answers = [a_record(name, int_to_ip(1000 + i), ttl) for i in range(count)]
    response = query.make_response(answers)
    decoded = DNSMessage.decode(response.encode())
    assert decoded.transaction_id == 0x0102
    assert decoded.question.name == name
    assert len(decoded.answers) == count
    assert all(rr.ttl == ttl for rr in decoded.answers)
    assert decoded.answer_addresses == [int_to_ip(1000 + i) for i in range(count)]


@given(name=domain_names, count=st.integers(min_value=0, max_value=120))
def test_response_size_formula_matches_encoder(name, count):
    query = DNSMessage.query(1, name)
    answers = [a_record(name, int_to_ip(i + 1), 300) for i in range(count)]
    assert query.make_response(answers).wire_size == response_size_for_a_records(name, count)


@given(name=domain_names, budget=st.integers(min_value=0, max_value=4096))
def test_capacity_is_maximal(name, budget):
    count = max_a_records_for_payload(name, budget)
    if count > 0:
        assert response_size_for_a_records(name, count) <= budget
    assert response_size_for_a_records(name, count + 1) > budget


# -- NTP timestamps and packets -----------------------------------------------------------------

@given(value=st.floats(min_value=0.0, max_value=2.0e9, allow_nan=False,
                       allow_infinity=False))
def test_ntp_timestamp_roundtrip_precision(value):
    # 2.0e9 (year 2033) stays inside NTP era 0, which ends in 2036.
    assert abs(ntp_to_unix(unix_to_ntp(value)) - value) < 1e-6


@given(origin=st.floats(min_value=1e9, max_value=2e9, allow_nan=False),
       shift=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_ntp_packet_roundtrip_and_origin_echo(origin, shift):
    request = NTPPacket.client_request(transmit_time=origin)
    reply = request.server_reply(receive_time=origin + abs(shift), transmit_time=origin + abs(shift),
                                 stratum=2, reference_time=origin)
    decoded = NTPPacket.decode(reply.encode())
    assert decoded.mode == NTPMode.SERVER
    assert decoded.valid_server_reply_to(origin)


# -- fragmentation ---------------------------------------------------------------------------------

@given(size=st.integers(min_value=0, max_value=4000),
       mtu=st.sampled_from([296, 548, 576, 1280, 1500]),
       ip_id=st.integers(min_value=0, max_value=0xFFFF),
       compensated=st.booleans(),
       data=st.data())
@settings(max_examples=60)
def test_fragmentation_reassembly_roundtrip(size, mtu, ip_id, compensated, data):
    payload = bytes(i % 251 for i in range(size))
    datagram = UDPDatagram("10.0.0.1", "10.0.0.2", 53, 9999, payload)
    fragments = fragment_datagram(datagram, ip_id=ip_id, mtu=mtu)
    assert all(f.total_size <= mtu for f in fragments)
    header_checksum = int.from_bytes(fragments[0].payload[6:8], "big")
    assert header_checksum == udp_checksum("10.0.0.1", "10.0.0.2", 53, 9999, payload)
    assert header_checksum != 0
    order = data.draw(st.permutations(fragments))
    buffer = ReassemblyBuffer()
    results = [buffer.add_fragment(fragment, now=0.0) for fragment in order]
    assert all(result.datagram is None for result in results[:-1])
    result = results[-1]
    assert result.datagram == datagram
    assert result.checksum_ok
    assert not result.poisoned
    if len(fragments) == 1:
        return
    # One changed byte in a trailing fragment that arrives first survives
    # reassembly (first wins) and fails the genuine header's checksum.
    target = fragments[data.draw(st.integers(min_value=1, max_value=len(fragments) - 1))]
    tampered = bytearray(target.payload)
    tampered[data.draw(st.integers(min_value=0, max_value=len(tampered) - 1))] ^= \
        data.draw(st.integers(min_value=1, max_value=0xFF))
    planted = replace(target, payload=bytes(tampered), spoofed=True,
                      checksum_compensated=compensated)
    buffer = ReassemblyBuffer()
    results = [buffer.add_fragment(fragment, now=0.0) for fragment in (planted, *order)]
    [result] = [result for result in results if result.datagram is not None]
    assert result.datagram.payload != payload
    assert result.poisoned
    assert not result.checksum_ok
    assert result.checksum_compensated == compensated


# -- Chronos selection invariants -------------------------------------------------------------------

@given(values=st.lists(offsets, min_size=0, max_size=60),
       trim=st.integers(min_value=0, max_value=10))
def test_trim_offsets_invariants(values, trim):
    survivors, discarded = trim_offsets(values, trim)
    assert len(survivors) + len(discarded) == len(values)
    assert sorted(survivors + discarded) == sorted(values)
    if survivors and discarded:
        lower = sorted(values)[:trim]
        upper = sorted(values)[-trim:] if trim else []
        assert min(survivors) >= max(lower) if lower else True
        assert max(survivors) <= min(upper) if upper else True


@given(values=st.lists(offsets, min_size=15, max_size=15))
def test_chronos_offset_is_bounded_by_sample_range(values):
    config = ChronosConfig()
    offset = mean(trim_offsets(values, config.trim_count)[0])
    assert min(values) - 1e-9 <= offset <= max(values) + 1e-9


@given(values=st.lists(offsets, min_size=3, max_size=200))
def test_panic_offset_is_bounded_by_middle_third(values):
    result = panic_select(values, ChronosConfig())
    assert result.accepted
    ordered = sorted(values)
    trim = len(values) // 3
    survivors = ordered[trim:len(ordered) - trim] if len(ordered) > 2 * trim else ordered
    assert min(survivors) - 1e-9 <= result.offset <= max(survivors) + 1e-9


@given(honest=st.lists(st.floats(min_value=-0.01, max_value=0.01, allow_nan=False),
                       min_size=10, max_size=10),
       attack_value=st.floats(min_value=10.0, max_value=1e4, allow_nan=False))
def test_minority_attacker_never_moves_chronos(honest, attack_value):
    """Security invariant: 5 of 15 malicious samples can never drag the
    accepted offset beyond the honest range."""
    config = ChronosConfig()
    offset = mean(trim_offsets(honest + [attack_value] * 5, config.trim_count)[0])
    assert offset <= max(honest) + 1e-9


# -- hypergeometric invariants --------------------------------------------------------------------------

@given(population=st.integers(min_value=1, max_value=200),
       data=st.data())
@settings(max_examples=50)
def test_hypergeometric_pmf_normalises(population, data):
    successes = data.draw(st.integers(min_value=0, max_value=population))
    draws = data.draw(st.integers(min_value=0, max_value=population))
    total = sum(hypergeometric_pmf(population, successes, draws, k) for k in range(draws + 1))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


@given(population=st.integers(min_value=1, max_value=200), data=st.data())
@settings(max_examples=50)
def test_hypergeometric_tail_monotone_and_bounded(population, data):
    successes = data.draw(st.integers(min_value=0, max_value=population))
    draws = data.draw(st.integers(min_value=0, max_value=population))
    previous = 1.0
    for threshold in range(0, draws + 2):
        value = hypergeometric_tail(population, successes, draws, threshold)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value <= previous + 1e-12
        previous = value
