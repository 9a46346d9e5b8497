"""Unit tests for DNS message encoding/decoding and response-capacity maths."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import (
    COMPRESSED_A_RECORD_SIZE,
    DNS_HEADER_SIZE,
    MAX_UNFRAGMENTED_UDP_PAYLOAD,
    OPT_RECORD_SIZE,
    DNSMessage,
    Question,
    ResponseCode,
    max_a_records_for_payload,
    response_size_for_a_records,
)
from repro.dns.records import RecordType, ResourceRecord, a_record, opt_record
from repro.dns.wire import WireFormatError


def make_query(name="pool.ntp.org", txid=0x1234):
    return DNSMessage.query(txid, name)


def test_query_constructor_defaults():
    query = make_query()
    assert query.transaction_id == 0x1234
    assert not query.is_response
    assert query.recursion_desired
    assert query.question.name == "pool.ntp.org"
    assert query.question.qtype == RecordType.A
    assert len(query.additional) == 1  # EDNS OPT record


def test_transaction_id_range_enforced():
    with pytest.raises(WireFormatError):
        DNSMessage.query(0x10000, "pool.ntp.org")


def test_make_response_echoes_id_and_question():
    query = make_query()
    response = query.make_response([a_record("pool.ntp.org", "10.0.0.1", 150)])
    assert response.is_response
    assert response.transaction_id == query.transaction_id
    assert response.question == query.question
    assert response.answer_addresses == ["10.0.0.1"]
    assert response.matches_query(query)


def test_response_with_wrong_id_does_not_match():
    query = make_query()
    other = DNSMessage.query(0x9999, "pool.ntp.org")
    response = other.make_response([a_record("pool.ntp.org", "10.0.0.1", 150)])
    assert not response.matches_query(query)


def test_response_with_wrong_question_does_not_match():
    query = make_query()
    other = DNSMessage.query(query.transaction_id, "evil.example")
    response = other.make_response([a_record("evil.example", "10.0.0.1", 150)])
    assert not response.matches_query(query)


def test_nxdomain_response():
    query = make_query("unknown.example")
    response = query.make_response([], rcode=ResponseCode.NXDOMAIN)
    assert response.rcode == ResponseCode.NXDOMAIN
    assert response.answer_addresses == []


def test_encode_decode_roundtrip_query():
    query = make_query()
    decoded = DNSMessage.decode(query.encode())
    assert decoded.transaction_id == query.transaction_id
    assert decoded.question == query.question
    assert not decoded.is_response
    assert decoded.recursion_desired


def test_encode_decode_roundtrip_response():
    query = make_query()
    answers = [a_record("pool.ntp.org", f"10.0.0.{i + 1}", 150) for i in range(4)]
    response = query.make_response(answers)
    decoded = DNSMessage.decode(response.encode())
    assert decoded.is_response
    assert decoded.authoritative
    assert decoded.answer_addresses == [f"10.0.0.{i + 1}" for i in range(4)]
    assert decoded.rcode == ResponseCode.NOERROR
    assert [rr.ttl for rr in decoded.answers] == [150] * 4


def test_roundtrip_preserves_large_ttl():
    query = make_query()
    response = query.make_response([a_record("pool.ntp.org", "10.0.0.1", 2 * 86400)])
    decoded = DNSMessage.decode(response.encode())
    assert decoded.answers[0].ttl == 2 * 86400


def test_decode_truncated_header_rejected():
    with pytest.raises(WireFormatError):
        DNSMessage.decode(b"\x00\x01\x02")


def test_decode_multi_question_rejected():
    query = make_query()
    wire = bytearray(query.encode())
    wire[5] = 2  # QDCOUNT = 2
    with pytest.raises(WireFormatError):
        DNSMessage.decode(bytes(wire))


def test_header_flag_bits():
    query = make_query()
    assert query.flags() & 0x8000 == 0
    response = query.make_response([a_record("pool.ntp.org", "10.0.0.1", 1)])
    assert response.flags() & 0x8000
    assert response.flags() & 0x0400  # authoritative
    assert response.flags() & 0x0080  # recursion available


def test_question_encoded_size():
    assert Question("pool.ntp.org").encoded_size() == 14 + 4


# -- the E5 capacity claim -------------------------------------------------------

def test_analytic_size_matches_real_encoder():
    query = make_query()
    for count in (1, 4, 20, 89):
        answers = [a_record("pool.ntp.org", f"198.51.100.{(i % 254) + 1}", 172800)
                   for i in range(count)]
        response = query.make_response(answers)
        assert response.wire_size == response_size_for_a_records("pool.ntp.org", count)


def test_paper_claim_89_records_fit_unfragmented():
    assert max_a_records_for_payload("pool.ntp.org", MAX_UNFRAGMENTED_UDP_PAYLOAD) == 89


def test_one_more_record_overflows_the_frame():
    size_89 = response_size_for_a_records("pool.ntp.org", 89)
    size_90 = response_size_for_a_records("pool.ntp.org", 90)
    assert size_89 <= MAX_UNFRAGMENTED_UDP_PAYLOAD < size_90


def test_capacity_for_subpool_names_matches_paper_too():
    # The numbered sub-pools (0..3.pool.ntp.org) have a slightly longer
    # question name but the capacity is still 89.
    assert max_a_records_for_payload("2.pool.ntp.org", MAX_UNFRAGMENTED_UDP_PAYLOAD) == 89


def test_capacity_at_classic_512_byte_limit_is_much_smaller():
    classic = max_a_records_for_payload("pool.ntp.org", 512)
    assert classic < 32
    assert classic == (512 - DNS_HEADER_SIZE - 18 - OPT_RECORD_SIZE) // COMPRESSED_A_RECORD_SIZE


def test_capacity_zero_when_budget_below_fixed_overhead():
    assert max_a_records_for_payload("pool.ntp.org", 20) == 0


def test_capacity_monotonic_in_budget():
    budgets = [256, 512, 1232, 1472, 4096]
    capacities = [max_a_records_for_payload("pool.ntp.org", b) for b in budgets]
    assert capacities == sorted(capacities)


def test_encoded_89_record_response_decodes_back():
    query = make_query()
    answers = [a_record("pool.ntp.org", f"198.51.100.{(i % 254) + 1}", 172800)
               for i in range(89)]
    response = query.make_response(answers)
    decoded = DNSMessage.decode(response.encode())
    assert len(decoded.answers) == 89
    assert decoded.answer_addresses[0] == "198.51.100.1"


# -- a total decoder ------------------------------------------------------------------


def _fuzz_corpus() -> list[bytes]:
    """Encoded messages covering every record type, cookies, DNS-0x20 and TC."""
    query = DNSMessage.query(0xBEEF, "2.Pool.ntp.org")
    pool_flood = [a_record("2.pool.ntp.org", f"203.0.113.{i + 1}", 172800) for i in range(89)]
    mixed = [
        a_record("2.pool.ntp.org", "10.0.0.1", 60),
        ResourceRecord("2.pool.ntp.org", RecordType.CNAME, 60, "pool.ntp.org"),
        ResourceRecord("ntp.org", RecordType.NS, 3600, "ns1.ntp.org"),
        ResourceRecord("2.pool.ntp.org", RecordType.TXT, 0, "sig:0123456789abcdef"),
        a_record("", "192.0.2.1", 0),
    ]
    messages = [
        query,
        replace(query, cookie=0x0123456789ABCDEF, case_nonce=0b1011),
        query.make_response(pool_flood),
        replace(query.make_response(mixed), cookie=7, case_nonce=0x3FF),
        replace(query.make_response([]), truncated=True, rcode=ResponseCode.SERVFAIL),
        replace(query.make_response(mixed[:2]), authority=(mixed[2],),
                additional=(mixed[3], opt_record(1232))),
    ]
    return [message.encode() for message in messages]


FUZZ_CORPUS = _fuzz_corpus()


@settings(max_examples=400, deadline=None)
@given(wire=st.sampled_from(FUZZ_CORPUS), data=st.data())
def test_decode_raises_only_wire_format_error_on_mutated_wire(wire, data):
    mutated = bytearray(wire)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        position = data.draw(st.integers(min_value=0, max_value=len(mutated) - 1))
        mutated[position] = data.draw(st.integers(min_value=0, max_value=255))
    mutated = mutated[:data.draw(st.integers(min_value=0, max_value=len(mutated)))]
    try:
        DNSMessage.decode(bytes(mutated))
    except WireFormatError:
        pass


@pytest.mark.parametrize("wire", [
    b"\x00\x01\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00\x03p\xe9l\x00\x00\x01\x00\x01",
    b"\x00\x01\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x63\x00\x01",
    b"\x00\x01\x81\x0f\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x01",
    b"\x00\x01\x81\x00\x00\x01\x00\x01\x00\x00\x00\x00\x00\x00\x01\x00\x01"
    b"\x00\x00\x10\x00\x01\x00\x00\x00\x00\x00\x02\x01\xff",
], ids=["non-ascii-label", "unknown-qtype", "unknown-rcode", "non-ascii-txt"])
def test_decode_leaks_no_other_error(wire):
    with pytest.raises(WireFormatError):
        DNSMessage.decode(wire)


# -- the root owner ---------------------------------------------------------------------

@pytest.mark.parametrize("record", [
    opt_record(1232),
    a_record(".", "192.0.2.1", 60),
    ResourceRecord("", RecordType.TXT, 60, "root text"),
], ids=["opt", "a", "txt"])
def test_root_owned_records_decode_to_the_empty_name(record):
    assert record.name == ""
    decoded, _ = ResourceRecord.decode(record.encode({}, 0), 0)
    assert decoded.name == ""
    assert decoded == record
    response = make_query().make_response([record])
    assert DNSMessage.decode(response.encode()) == response
