"""Unit tests for DNS wire-format primitives and resource records."""

from __future__ import annotations

import pytest

from repro.dns.records import RecordType, ResourceRecord, a_record, opt_record
from repro.dns.wire import (
    WireFormatError,
    decode_name,
    encode_name,
    name_to_labels,
    normalise_name,
)


# -- names --------------------------------------------------------------------

def test_normalise_name_lowercases_and_strips_dot():
    assert normalise_name("Pool.NTP.org.") == "pool.ntp.org"


def test_name_to_labels():
    assert name_to_labels("pool.ntp.org") == ["pool", "ntp", "org"]
    assert name_to_labels("") == []
    assert name_to_labels(".") == []


def test_label_too_long_rejected():
    with pytest.raises(WireFormatError):
        name_to_labels("a" * 64 + ".example")


def test_name_too_long_rejected():
    long_name = ".".join(["label"] * 50)
    with pytest.raises(WireFormatError):
        name_to_labels(long_name)


def test_empty_label_rejected():
    with pytest.raises(WireFormatError):
        name_to_labels("pool..org")


def test_encode_name_uncompressed_layout():
    encoded = encode_name("pool.ntp.org")
    assert encoded == b"\x04pool\x03ntp\x03org\x00"
    # One length byte per label plus the root byte: len(name) + 2.
    assert len(encoded) == len("pool.ntp.org") + 2


def test_encode_root_name():
    assert encode_name("") == b"\x00"
    assert encode_name(".") == b"\x00"


def test_encode_decode_roundtrip():
    encoded = encode_name("2.pool.ntp.org")
    name, offset = decode_name(encoded, 0)
    assert name == "2.pool.ntp.org"
    assert offset == len(encoded)


def test_compression_pointer_emitted_for_repeated_name():
    compression = {}
    first = encode_name("pool.ntp.org", compression, offset=12)
    second = encode_name("pool.ntp.org", compression, offset=12 + len(first))
    assert len(second) == 2
    assert second[0] & 0xC0 == 0xC0


def test_compression_pointer_decodes_via_original_bytes():
    compression = {}
    buffer = bytearray(b"\x00" * 12)  # fake header
    buffer += encode_name("pool.ntp.org", compression, offset=12)
    pointer_offset = len(buffer)
    buffer += encode_name("pool.ntp.org", compression, offset=pointer_offset)
    name, _ = decode_name(bytes(buffer), pointer_offset)
    assert name == "pool.ntp.org"


def test_compression_suffix_reuse():
    compression = {}
    encode_name("pool.ntp.org", compression, offset=0)
    encoded = encode_name("www.ntp.org", compression, offset=30)
    # "ntp.org" suffix is shared: label "www" (4 bytes) + 2-byte pointer.
    assert len(encoded) == 4 + 2


def test_decode_name_pointer_loop_rejected():
    # A pointer that points at itself must not hang.
    data = b"\xc0\x00"
    with pytest.raises(WireFormatError):
        decode_name(data, 0)


def test_decode_truncated_name_rejected():
    with pytest.raises(WireFormatError):
        decode_name(b"\x04poo", 0)


# -- resource records -----------------------------------------------------------

def test_a_record_constructor():
    record = a_record("pool.ntp.org", "10.0.0.1", 150)
    assert record.rtype == RecordType.A
    assert record.rdata == "10.0.0.1"
    assert record.ttl == 150
    assert record.is_address


def test_record_name_normalised():
    record = a_record("Pool.NTP.ORG.", "10.0.0.1", 150)
    assert record.name == "pool.ntp.org"


def test_negative_ttl_rejected():
    with pytest.raises(WireFormatError):
        a_record("pool.ntp.org", "10.0.0.1", -1)


def test_huge_ttl_rejected():
    with pytest.raises(WireFormatError):
        a_record("pool.ntp.org", "10.0.0.1", 2 ** 31)


def test_with_ttl_copies():
    record = a_record("pool.ntp.org", "10.0.0.1", 150)
    copy = record.with_ttl(60)
    assert copy.ttl == 60
    assert record.ttl == 150
    assert copy.rdata == record.rdata


def test_a_record_rdata_is_four_bytes():
    record = a_record("pool.ntp.org", "192.0.2.7", 60)
    assert record.rdata_bytes() == bytes([192, 0, 2, 7])


def test_a_record_encode_decode_roundtrip():
    record = a_record("pool.ntp.org", "198.51.100.42", 172800)
    compression = {}
    wire = record.encode(compression, offset=0)
    decoded, consumed = ResourceRecord.decode(wire, 0)
    assert consumed == len(wire)
    assert decoded.name == record.name
    assert decoded.rtype == RecordType.A
    assert decoded.ttl == 172800
    assert decoded.rdata == "198.51.100.42"


def test_compressed_a_record_is_16_bytes():
    compression = {"pool.ntp.org": 12}
    record = a_record("pool.ntp.org", "10.0.0.1", 150)
    assert len(record.encode(compression, offset=40)) == 16


def test_cname_record_roundtrip():
    record = ResourceRecord(name="alias.example", rtype=RecordType.CNAME, ttl=60,
                            rdata="target.example")
    wire = record.encode({}, 0)
    decoded, _ = ResourceRecord.decode(wire, 0)
    assert decoded.rdata == "target.example"
    assert decoded.rtype == RecordType.CNAME


def test_txt_record_roundtrip():
    record = ResourceRecord(name="txt.example", rtype=RecordType.TXT, ttl=60,
                            rdata="hello world")
    wire = record.encode({}, 0)
    decoded, _ = ResourceRecord.decode(wire, 0)
    assert decoded.rdata == "hello world"


def test_txt_record_too_long_rejected():
    record = ResourceRecord(name="txt.example", rtype=RecordType.TXT, ttl=60,
                            rdata="x" * 300)
    with pytest.raises(WireFormatError):
        record.rdata_bytes()


def test_opt_record_is_eleven_bytes():
    record = opt_record(4096)
    assert len(record.encode({}, 0)) == 11


def test_opt_record_carries_payload_size_in_class():
    assert opt_record(1232).rclass == 1232


def test_decode_truncated_rdata_rejected():
    record = a_record("pool.ntp.org", "10.0.0.1", 150)
    wire = record.encode({}, 0)
    with pytest.raises(WireFormatError):
        ResourceRecord.decode(wire[:-2], 0)
