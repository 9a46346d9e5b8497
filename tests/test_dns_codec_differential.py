"""Differential gate: the one-pass DNS codec against the frozen reference.

``_reference_codec`` is the per-field codec the one-pass codec replaced,
kept verbatim.  On random messages covering every record type, name
compression, cookies, DNS-0x20, every header flag and the TTL edges the
live codec must

* encode byte-identically (or raise :class:`WireFormatError` where the
  reference raised it),
* decode the reference's wire to an equal object, which re-encodes to the
  same bytes, and
* on mutated or truncated wire, raise exactly :class:`WireFormatError`
  whenever the reference raised anything, and otherwise agree with it —
  except that the live decoder also rejects a name the encoder would
  reject, which the reference decoded.

The codec memo is gated here too: one body under many transaction ids,
fresh instances per decode, garbage raising on every call, bounded caches
and the pinned grid digest with the memo cold and warm.
"""

from __future__ import annotations

from dataclasses import fields

import _reference_codec as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import (
    DNSMessage,
    Question,
    ResponseCode,
    _decoded_fields,
    _encoded_body,
)
from repro.dns.records import RecordType, ResourceRecord, a_record
from repro.dns.wire import WireFormatError
from repro.experiments.matrix import run_defense_matrix
from repro.experiments.pins import FULL_GRID_DIGEST

# -- strategies ----------------------------------------------------------------

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
                 min_size=1, max_size=12)
zone_names = st.lists(labels, min_size=1, max_size=3).map(".".join)
ttls = st.one_of(st.sampled_from([0, 1, 86400, 2 ** 31 - 1]),
                 st.integers(min_value=0, max_value=2 ** 31 - 1))
addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(ref.int_to_ip)
texts = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40)


@st.composite
def records(draw, qname: str):
    """A record spec ``(name, rtype, ttl, rdata, rclass)``; owners favour ``qname``."""
    owner = draw(st.one_of(st.just(qname), zone_names, st.sampled_from(["", "."])))
    kind = draw(st.sampled_from([RecordType.A, RecordType.NS, RecordType.CNAME,
                                 RecordType.TXT, RecordType.OPT]))
    if kind == RecordType.A:
        rdata = draw(addresses)
    elif kind in (RecordType.NS, RecordType.CNAME):
        rdata = draw(st.one_of(st.just(qname), zone_names))
    elif kind == RecordType.TXT:
        rdata = draw(texts)
    else:
        # The payload size rides in CLASS; past 65535 it cannot be encoded.
        return ("", int(kind), 0, "", draw(st.integers(min_value=512, max_value=70000)))
    return (owner, int(kind), draw(ttls), rdata, 1)


@st.composite
def messages(draw):
    """A message spec: constructor keyword arguments with records as tuples."""
    qname = draw(zone_names)
    sections = {}
    for section, most in (("answers", 12), ("authority", 3), ("additional", 3)):
        sections[section] = tuple(draw(st.lists(records(qname), max_size=most)))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        # The attack's shape: a pool flood of A records for the question name.
        sections["answers"] = tuple((qname, 1, draw(ttls), ref.int_to_ip(0x0A000000 + i), 1)
                                    for i in range(draw(st.integers(60, 89))))
    return dict(
        transaction_id=draw(st.integers(min_value=0, max_value=0xFFFF)),
        question=(qname, int(draw(st.sampled_from(list(RecordType)))),
                  draw(st.sampled_from([1, 3, 255]))),
        is_response=draw(st.booleans()),
        rcode=int(draw(st.sampled_from(list(ResponseCode)))),
        recursion_desired=draw(st.booleans()),
        recursion_available=draw(st.booleans()),
        authoritative=draw(st.booleans()),
        truncated=draw(st.booleans()),
        cookie=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 64 - 1))),
        case_nonce=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 40))),
        **sections,
    )


def build(module, spec: dict):
    """Construct ``spec`` with ``module``'s classes (live ``repro.dns`` or the reference)."""
    classes = {"live": (ResourceRecord, RecordType, Question, ResponseCode, DNSMessage),
               "ref": (ref.ResourceRecord, ref.RecordType, ref.Question, ref.ResponseCode,
                       ref.DNSMessage)}[module]
    record_cls, rtype_cls, question_cls, rcode_cls, message_cls = classes
    qname, qtype, qclass = spec["question"]
    fields = dict(spec, question=question_cls(qname, rtype_cls(qtype), qclass),
                  rcode=rcode_cls(spec["rcode"]))
    for section in ("answers", "authority", "additional"):
        fields[section] = tuple(record_cls(name, rtype_cls(rtype), ttl, rdata, rclass)
                                for name, rtype, ttl, rdata, rclass in spec[section])
    return message_cls(**fields)


def canon(message) -> tuple:
    """Class-independent view of a message (enums as ints)."""
    def record(rr):
        return (rr.name, int(rr.rtype), type(rr.rtype).__name__, rr.ttl, rr.rdata,
                int(rr.rclass))
    return (message.transaction_id, message.question.name, int(message.question.qtype),
            message.question.qclass, message.is_response,
            tuple(tuple(record(rr) for rr in section)
                  for section in (message.answers, message.authority, message.additional)),
            int(message.rcode), message.recursion_desired, message.recursion_available,
            message.authoritative, message.truncated, message.cookie,
            message.case_nonce)


def outcome(fn):
    """``("ok", value)`` or ``("raised", exception)``."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the reference may raise anything
        return "raised", exc


def assert_same_encoding(live, reference) -> None:
    live_kind, live_wire = outcome(live.encode)
    ref_kind, ref_wire = outcome(reference.encode)
    assert live_kind == ref_kind, (live_wire, ref_wire)
    if live_kind == "ok":
        assert live_wire == ref_wire
    else:
        assert type(live_wire) is WireFormatError, repr(live_wire)


def assert_same_decoding(wire: bytes) -> None:
    """The live decoder agrees with the reference on arbitrary bytes."""
    ref_kind, ref_message = outcome(lambda: ref.DNSMessage.decode(wire))
    live_kind, live_message = outcome(lambda: DNSMessage.decode(wire))
    if ref_kind == "raised":
        assert live_kind == "raised", f"reference raised {ref_message!r}; live decoded"
        assert type(live_message) is WireFormatError, repr(live_message)
        return
    assert live_kind == "ok", f"reference decoded; live raised {live_message!r}"
    assert canon(live_message) == canon(ref_message)
    # Decoded records carry their RDATA wire; re-encoding must not notice.
    assert_same_encoding(live_message, ref_message)


# -- the gate ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(spec=messages())
def test_encode_is_byte_identical_to_reference(spec):
    assert_same_encoding(build("live", spec), build("ref", spec))


@settings(max_examples=200, deadline=None)
@given(spec=messages())
def test_decoding_reference_wire_gives_equal_objects(spec):
    reference = build("ref", spec)
    kind, wire = outcome(reference.encode)
    if kind == "raised":
        return  # unencodable (e.g. a TXT string over 255 bytes): covered above
    live = DNSMessage.decode(wire)
    assert canon(live) == canon(ref.DNSMessage.decode(wire))
    assert (live == build("live", spec)) == (ref.DNSMessage.decode(wire) == reference)
    assert live.encode() == wire


@settings(max_examples=300, deadline=None)
@given(spec=messages(), data=st.data())
def test_mutated_wire_fails_exactly_where_the_reference_failed(spec, data):
    kind, wire = outcome(build("ref", spec).encode)
    if kind == "raised":
        return
    mutated = bytearray(wire)
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        position = data.draw(st.integers(min_value=0, max_value=len(mutated) - 1))
        if data.draw(st.booleans()):
            mutated[position] = data.draw(st.integers(min_value=0, max_value=255))
        else:
            mutated[position] ^= 0x20  # flips the case of a letter, keeps it decodable
    cut = data.draw(st.integers(min_value=0, max_value=len(mutated)))
    wire = bytes(mutated[:cut])
    ref_kind, ref_message = outcome(lambda: ref.DNSMessage.decode(wire))
    if ref_kind == "ok" and unencodable_names(ref_message):
        assert_rejects_unencodable_name(wire)
    else:
        assert_same_decoding(wire)


def unencodable_names(message) -> list[str]:
    """The names of a reference-decoded message that ``name_to_labels`` rejects."""
    names = [message.question.name]
    for rr in message.answers + message.authority + message.additional:
        names.append(rr.name)
        if rr.rtype in (ref.RecordType.NS, ref.RecordType.CNAME):
            names.append(rr.rdata)
    rejected = []
    for name in names:
        try:
            ref.name_to_labels(name)
        except ref.WireFormatError:  # noqa: PERF203 - one verdict per name
            rejected.append(name)
    return rejected


def assert_rejects_unencodable_name(wire: bytes) -> None:
    """The one accepted divergence: the reference decodes a name its own
    encoder rejects; the live decoder raises :class:`WireFormatError`."""
    with pytest.raises(WireFormatError):
        DNSMessage.decode(wire)
    with pytest.raises(ref.WireFormatError):
        ref.DNSMessage.decode(wire).encode()


def _query_naming(raw_name: bytes) -> bytes:
    return ref.DNSMessage.query(7, "a", edns_payload=0).encode()[:12] + raw_name + b"\0\1\0\1"


UNENCODABLE_NAME_WIRES = {
    "name-over-255-bytes": _query_naming(b"".join(b"\x3f" + b"a" * 63 for _ in range(5))
                                         + b"\x00"),
    "dot-inside-a-label": _query_naming(b"\x02a.\x03org\x00"),
    "dot-inside-ns-rdata": ref.DNSMessage.query(7, "ntp.org", edns_payload=0).make_response(
        [ref.ResourceRecord("ntp.org", ref.RecordType.NS, 60, "ab.org")], edns_payload=0,
    ).encode().replace(b"\x02ab\x03org", b"\x02a.\x03org"),
}


@pytest.mark.parametrize("name", sorted(UNENCODABLE_NAME_WIRES))
def test_name_the_encoder_rejects_is_malformed_where_the_reference_decoded_it(name):
    wire = UNENCODABLE_NAME_WIRES[name]
    assert unencodable_names(ref.DNSMessage.decode(wire))
    assert_rejects_unencodable_name(wire)


def _non_canonical_wires() -> dict[str, bytes]:
    """Valid wire whose RDATA another encoder could have written differently."""
    query = ref.DNSMessage.query(9, "pool.ntp.org", edns_payload=0)

    def last(record, edns_payload=0) -> bytes:
        return query.make_response([record], edns_payload=edns_payload).encode()

    ns = last(ref.ResourceRecord("ntp.org", ref.RecordType.NS, 60, "pool.ntp.org"))
    txt = last(ref.ResourceRecord("pool.ntp.org", ref.RecordType.TXT, 60, "abc"))
    opt = last(ref.a_record("pool.ntp.org", "192.0.2.1", 60), edns_payload=1232)
    return {
        "ns-upper-case": ns[:-13] + b"POOL" + ns[-9:],
        "ns-pointer": ns[:-16] + b"\x00\x02\xc0\x0c",
        "txt-padding": txt[:-6] + b"\x00\x05\x03abcX",
        "opt-options": opt[:-2] + b"\x00\x04\x00\x0a\x00\x00",
    }


@pytest.mark.parametrize("name", sorted(_non_canonical_wires()))
def test_non_canonical_rdata_re_encodes_like_the_reference(name):
    wire = _non_canonical_wires()[name]
    assert DNSMessage.decode(wire).encode() != wire  # the case is not trivial
    assert_same_decoding(wire)


@pytest.mark.parametrize("ttl", [-1, 2 ** 31, 2 ** 32])
def test_out_of_range_ttl_rejected_like_the_reference(ttl):
    with pytest.raises(ref.WireFormatError):
        ref.a_record("pool.ntp.org", "10.0.0.1", ttl)
    with pytest.raises(WireFormatError):
        a_record("pool.ntp.org", "10.0.0.1", ttl)
    with pytest.raises(WireFormatError):
        a_record("pool.ntp.org", "10.0.0.1", 60).with_ttl(ttl)


@pytest.mark.parametrize("ttl", [2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1])
def test_wire_ttl_edges_decode_like_the_reference(ttl):
    record = ref.a_record("pool.ntp.org", "10.0.0.1", 0)
    wire = ref.DNSMessage.query(3, "pool.ntp.org", edns_payload=0).make_response(
        [record], edns_payload=0).encode()
    wire = wire[:-10] + ttl.to_bytes(4, "big") + wire[-6:]  # TTL, RDLENGTH, address
    assert_same_decoding(wire)
    if ttl < 2 ** 31:
        assert DNSMessage.decode(wire).answers[0].ttl == ttl


# -- the codec memo ----------------------------------------------------------------

transaction_ids = st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=2, max_size=4)


@settings(max_examples=100, deadline=None)
@given(spec=messages(), ids=transaction_ids)
def test_one_body_decodes_like_the_reference_under_every_transaction_id(spec, ids):
    kind, wire = outcome(build("ref", spec).encode)
    if kind == "raised":
        return
    decoded = []
    for transaction_id in ids:
        variant = transaction_id.to_bytes(2, "big") + wire[2:]
        live = DNSMessage.decode(variant)
        assert live.transaction_id == transaction_id
        assert canon(live) == canon(ref.DNSMessage.decode(variant))
        decoded.append(live)
    assert len({id(message) for message in decoded}) == len(decoded)


@settings(max_examples=100, deadline=None)
@given(spec=messages())
def test_decoded_instances_are_fresh_and_encoding_one_changes_no_later_decode(spec):
    kind, wire = outcome(build("ref", spec).encode)
    if kind == "raised":
        return
    first = DNSMessage.decode(wire)
    state = dict(vars(first))
    # Laid out as the constructor would have: every field, in field order.
    assert list(state) == [field.name for field in fields(DNSMessage)]
    assert first.encode() == wire
    second = DNSMessage.decode(wire)
    assert second is not first
    assert vars(first) == state and vars(second) == state
    assert list(vars(second)) == list(state)


@settings(max_examples=100, deadline=None)
@given(spec=messages(), ids=transaction_ids)
def test_messages_equal_but_for_their_id_encode_like_the_reference(spec, ids):
    for transaction_id in ids:
        variant = dict(spec, transaction_id=transaction_id)
        assert_same_encoding(build("live", variant), build("ref", variant))


GARBAGE = {
    "empty": b"",
    "one-byte": b"\x07",
    "short-header": b"\x12\x34\x01\x00\x00",
    "trailing-junk-name": DNSMessage.query(7, "pool.ntp.org").encode()[:14] + b"\xff\xfe",
    **UNENCODABLE_NAME_WIRES,
}


@pytest.mark.parametrize("name", sorted(GARBAGE))
def test_garbage_raises_on_every_call_and_is_never_cached(name):
    before = _decoded_fields.cache_info()
    for _ in range(3):
        with pytest.raises(WireFormatError):
            DNSMessage.decode(GARBAGE[name])
    after = _decoded_fields.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 3)
    assert after.currsize == before.currsize


def test_codec_memos_stay_bounded():
    bound = _decoded_fields.cache_info().maxsize
    assert bound == _encoded_body.cache_info().maxsize == 4096
    for cookie in range(bound + 50):
        DNSMessage.decode(DNSMessage.query(cookie & 0xFFFF, "pool.ntp.org", cookie=cookie).encode())
    for memo in (_decoded_fields, _encoded_body):
        assert memo.cache_info().currsize == bound


def test_pinned_grid_digest_with_the_codec_memo_cold_then_warm():
    _decoded_fields.cache_clear()
    _encoded_body.cache_clear()
    cold = run_defense_matrix(seeds=(1, 2), workers=1).digest()
    warm_hits = _decoded_fields.cache_info().hits
    warm = run_defense_matrix(seeds=(1, 2), workers=1).digest()
    assert cold == warm == FULL_GRID_DIGEST
    assert _decoded_fields.cache_info().hits > warm_hits
