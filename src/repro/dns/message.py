"""DNS messages: header, question, sections, and full wire encode/decode.

The encoder implements name compression, so the size of a response carrying
``n`` A records for the same owner name matches real DNS: 12 bytes of header,
one question, ``n`` sixteen-byte answer records (2-byte name pointer + type +
class + TTL + RDLENGTH + 4 address bytes) and an 11-byte EDNS OPT record.
:func:`max_a_records_for_payload` inverts that layout to compute how many A
records fit under a payload budget — the paper's "up to 89 for a single
non-fragmented DNS response".

The codec is memoized process-wide on everything but the transaction id (a
sweep's stack columns replay the same seeded world), in two LRU caches of
4096 entries: :func:`_decoded_fields` and :func:`_encoded_body`.  A failure
raises before it can be stored, so garbage raises on every call and every
drop is counted.  A resolver's cache hit bypasses the encode memo (its TTL
changes every second): :meth:`DNSMessage.encode_cached_answer` joins the
cache entry's answer template, split at the TTL fields, with the new TTL.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .records import (
    RecordClass,
    RecordType,
    ResourceRecord,
    decode_records,
    encode_records,
    opt_record,
    record_type,
)
from .wire import (
    WireFormatError,
    apply_case_pattern,
    decode_name,
    encode_name,
    extract_case_pattern,
    normalise_name,
)

DNS_HEADER_SIZE = 12
#: Header flag marking the presence of a DNS-cookie block (the reserved Z
#: bit, repurposed by the simulation — see :class:`DNSMessage.cookie`).
COOKIE_FLAG = 0x0040
#: Size of the simulated cookie block in bytes.
COOKIE_SIZE = 8
#: Classic maximum UDP payload without EDNS.
CLASSIC_UDP_LIMIT = 512
#: UDP payload that fits in a single Ethernet frame: 1500 - 20 (IP) - 8 (UDP).
MAX_UNFRAGMENTED_UDP_PAYLOAD = 1472
#: Size of the EDNS OPT pseudo-record: root name (1) + type (2) + class (2)
#: + TTL (4) + RDLENGTH (2).
OPT_RECORD_SIZE = 11
#: Size of an answer A record whose owner name is compressed to a pointer:
#: pointer (2) + type (2) + class (2) + TTL (4) + RDLENGTH (2) + address (4).
COMPRESSED_A_RECORD_SIZE = 16

#: ID, flags, QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT.
_HEADER = struct.Struct(">6H")
#: QTYPE and QCLASS after the question name.
_QUESTION_TAIL = struct.Struct(">HH")


class ResponseCode(enum.IntEnum):
    """DNS RCODE values (subset)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    REFUSED = 5


_RESPONSE_CODES = {member.value: member for member in ResponseCode}


class Opcode(enum.IntEnum):
    QUERY = 0


@dataclass(frozen=True)
class Question:
    """The question section entry (single-question messages only)."""

    name: str
    qtype: RecordType = RecordType.A
    qclass: int = RecordClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalise_name(self.name))

    def encoded_size(self) -> int:
        return len(encode_name(self.name)) + 4


@dataclass(frozen=True)
class DNSMessage:
    """A DNS query or response message."""

    transaction_id: int
    question: Question
    is_response: bool = False
    answers: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()
    rcode: ResponseCode = ResponseCode.NOERROR
    recursion_desired: bool = True
    recursion_available: bool = False
    authoritative: bool = False
    truncated: bool = False
    #: DNS-cookie block (RFC 7873 model): a 64-bit value a client attaches to
    #: its query and the server must echo.  The simulation encodes it right
    #: after the question — alongside the transaction id in the *first*
    #: fragment of a fragmented response — because what the attack model
    #: cares about is that the cookie is attacker-visible under a BGP hijack
    #: (the attacker receives the query) and genuine under a fragment splice
    #: (the spoofed fragments only replace the trailing answer bytes).
    cookie: Optional[int] = None
    #: DNS-0x20 nonce: the case pattern of the question name's letters (bit i
    #: = i-th letter upper-cased).  ``None`` decodes/encodes as all-lowercase.
    case_nonce: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.transaction_id <= 0xFFFF:
            raise WireFormatError(f"transaction id out of range: {self.transaction_id}")
        if self.cookie is not None and not 0 <= self.cookie < 1 << (8 * COOKIE_SIZE):
            raise WireFormatError(f"cookie out of range: {self.cookie}")
        object.__setattr__(self, "answers", tuple(self.answers))
        object.__setattr__(self, "authority", tuple(self.authority))
        object.__setattr__(self, "additional", tuple(self.additional))

    # -- constructors --------------------------------------------------------
    @classmethod
    def query(cls, transaction_id: int, name: str, qtype: RecordType = RecordType.A,
              cookie: Optional[int] = None, case_nonce: Optional[int] = None) -> DNSMessage:
        """Build a standard recursive query with the EDNS OPT record."""
        return cls(
            transaction_id=transaction_id,
            question=Question(name=name, qtype=qtype),
            is_response=False,
            additional=_OPT_ADDITIONAL,
            cookie=cookie,
            case_nonce=case_nonce,
        )

    def make_response(self, answers: list[ResourceRecord],
                      rcode: ResponseCode = ResponseCode.NOERROR,
                      authoritative: bool = True) -> DNSMessage:
        """Build a response to this query, echoing id and question.

        Copies this (already validated) query and sets the response fields.
        """
        response = object.__new__(type(self))
        state = response.__dict__
        state.update(self.__dict__)
        state.update(is_response=True, answers=tuple(answers), authority=(),
                     additional=_OPT_ADDITIONAL,
                     rcode=rcode, authoritative=authoritative, recursion_available=True)
        return response

    # -- convenience ---------------------------------------------------------
    @property
    def answer_addresses(self) -> list[str]:
        """All A-record addresses in the answer section, in order."""
        return [rr.rdata for rr in self.answers if rr.rtype == RecordType.A]

    def matches_query(self, query: DNSMessage) -> bool:
        """Off-path acceptance check a resolver performs on a response:
        transaction id and question must match the outstanding query."""
        return (
            self.transaction_id == query.transaction_id
            and self.question == query.question
        )

    # -- wire format -----------------------------------------------------------
    def flags(self) -> int:
        value = 0
        if self.is_response:
            value |= 0x8000
        if self.authoritative:
            value |= 0x0400
        if self.truncated:
            value |= 0x0200
        if self.recursion_desired:
            value |= 0x0100
        if self.recursion_available:
            value |= 0x0080
        if self.cookie is not None:
            value |= COOKIE_FLAG
        value |= int(self.rcode) & 0x000F
        return value

    def encode(self) -> bytes:
        """Serialise to wire bytes with name compression.

        The bytes after the transaction id come from :func:`_encoded_body`,
        a 4096-entry LRU keyed on every other field the encoder reads.
        """
        return self.transaction_id.to_bytes(2, "big") + _encoded_body(
            self.flags(), self.question, self.cookie, self.case_nonce,
            self.answers, self.authority, self.additional)

    def encode_cached_answer(self, entry, ttl: int) -> bytes:
        """The wire of ``self.make_response([r.with_ttl(ttl) for r in
        entry.records], authoritative=False)``.  Every record of a cache hit
        carries one TTL (RFC 2181 §5.2), so the answer section is the entry's
        records, encoded once per section offset (a cookie moves it; 0x20 only
        re-cases the question) and split at the TTL fields, joined by the TTL."""
        response = self.make_response((), authoritative=False)
        head, compression = _encode_head(response.flags(), self.question, self.cookie,
                                         self.case_nonce, (len(entry.records), 0, 1))
        chunks = entry.answer_templates.get(len(head))
        if chunks is None:
            chunks = entry.answer_templates[len(head)] = _split_at_ttls(
                entry.records, compression, len(head))
        return (self.transaction_id.to_bytes(2, "big") + head[2:]
                + ttl.to_bytes(4, "big").join(chunks) + _OPT_WIRE)

    @property
    def wire_size(self) -> int:
        """Size of the encoded message in bytes."""
        return len(self.encode())

    @classmethod
    def decode(cls, data: bytes) -> DNSMessage:
        """Parse wire bytes back into a message (single-question only).

        Each call returns a fresh instance: the id read from ``data``, the
        other fields copied from :func:`_decoded_fields` of the bytes after it
        (a 4096-entry LRU; a failure raises, so it is never stored).
        """
        message = object.__new__(cls)
        message.__dict__.update(transaction_id=int.from_bytes(data[:2], "big"),
                                **_decoded_fields(data[2:]))
        return message


def _encode_head(flags, question, cookie, case_nonce, counts) -> tuple[bytearray, dict]:
    """Header (id zeroed), question and cookie block, and the compression
    map the records after them continue."""
    try:
        out = bytearray(_HEADER.pack(0, flags, 1, *counts))
        compression: dict = {}
        name = encode_name(question.name, compression, DNS_HEADER_SIZE)
        if case_nonce:
            # The compression map is keyed on the canonical lower-case name;
            # only the emitted bytes change case, so pointers still resolve.
            name = apply_case_pattern(name, case_nonce)
        out += name
        out += _QUESTION_TAIL.pack(question.qtype, question.qclass)
    except struct.error as exc:
        raise WireFormatError(f"header field out of range: {exc}") from None
    if cookie is not None:
        out += cookie.to_bytes(COOKIE_SIZE, "big")
    return out, compression


@lru_cache(maxsize=4096)
def _encoded_body(flags, question, cookie, case_nonce, answers, authority, additional) -> bytes:
    """A message's wire after its transaction id.  Memoizing it is exact:
    record equality covers every field the record encoder reads."""
    out, compression = _encode_head(flags, question, cookie, case_nonce,
                                    (len(answers), len(authority), len(additional)))
    out += encode_records(answers + authority + additional, compression, len(out))
    return bytes(out[2:])


def _split_at_ttls(records, compression: dict, offset: int) -> tuple[bytes, ...]:
    """``records`` encoded from wire ``offset`` on, cut around each 4-byte
    TTL field (which sits just before RDLENGTH and RDATA)."""
    chunks, wire, start = [], bytearray(), 0
    for record in records:
        wire += encode_records((record,), compression, offset + len(wire))
        ttl_at = len(wire) - len(record.rdata_bytes()) - 6
        chunks.append(bytes(wire[start:ttl_at]))
        start = ttl_at + 4
    chunks.append(bytes(wire[start:]))
    return tuple(chunks)


#: The EDNS OPT record (4096-byte payload) every query and response carries
#: last, and its wire.
_OPT_ADDITIONAL = (opt_record(),)
_OPT_WIRE = encode_records(_OPT_ADDITIONAL, {}, 0)


@lru_cache(maxsize=4096)
def _decoded_fields(body: bytes) -> dict:
    """The fields of a message whose wire after its transaction id is ``body``.
    Only ever copied into a fresh instance, so the cached dict never changes."""
    data = b"\0\0" + body
    try:
        _, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data)
    except struct.error:
        raise WireFormatError("truncated DNS header") from None
    if qdcount != 1:
        raise WireFormatError(f"unsupported question count: {qdcount}")
    qname, offset = decode_name(data, DNS_HEADER_SIZE)
    nonce, _ = extract_case_pattern(data[DNS_HEADER_SIZE:offset])
    try:
        qtype, qclass = _QUESTION_TAIL.unpack_from(data, offset)
    except struct.error:
        raise WireFormatError("truncated question") from None
    offset += 4
    rcode = _RESPONSE_CODES.get(flags & 0x000F)
    if rcode is None:
        raise WireFormatError(f"unknown response code {flags & 0x000F}")
    cookie: Optional[int] = None
    if flags & COOKIE_FLAG:
        if offset + COOKIE_SIZE > len(data):
            raise WireFormatError("truncated cookie block")
        cookie = int.from_bytes(data[offset:offset + COOKIE_SIZE], "big")
        offset += COOKIE_SIZE
    question = Question(name=qname, qtype=record_type(qtype), qclass=qclass)
    # Answers point back at the question name: seed the owner-name table
    # with it so that none of them decodes a name at all.
    owners = {DNS_HEADER_SIZE: question.name}
    answers, offset = decode_records(data, offset, ancount, owners)
    authority, offset = decode_records(data, offset, nscount, owners)
    additional, _ = decode_records(data, offset, arcount, owners)
    # In field order, laid out as the constructor lays out ``__dict__``.
    return dict(question=question, is_response=bool(flags & 0x8000), answers=answers,
                authority=authority, additional=additional, rcode=rcode,
                recursion_desired=bool(flags & 0x0100),
                recursion_available=bool(flags & 0x0080),
                authoritative=bool(flags & 0x0400), truncated=bool(flags & 0x0200),
                cookie=cookie,
                # All-lowercase decodes to None so that cookie-less, case-less
                # messages round-trip to objects equal to their originals.
                case_nonce=nonce or None)


def response_size_for_a_records(qname: str, record_count: int) -> int:
    """Wire size of a response to ``qname`` carrying ``record_count`` A records.

    Computed analytically from the layout (and cross-checked against the real
    encoder in the test suite).
    """
    question_size = len(encode_name(qname)) + 4
    return (DNS_HEADER_SIZE + question_size + record_count * COMPRESSED_A_RECORD_SIZE
            + OPT_RECORD_SIZE)


def max_a_records_for_payload(qname: str, payload_limit: int = MAX_UNFRAGMENTED_UDP_PAYLOAD
                              ) -> int:
    """Maximum number of A records that fit in a response of ``payload_limit`` bytes.

    With the pool.ntp.org question name and the conventional
    1472-byte unfragmented UDP budget this evaluates to 89 — the figure the
    paper quotes for the attacker's single-response pool flood.
    """
    question_size = len(encode_name(qname)) + 4
    fixed = DNS_HEADER_SIZE + question_size + OPT_RECORD_SIZE
    if payload_limit < fixed:
        return 0
    return (payload_limit - fixed) // COMPRESSED_A_RECORD_SIZE
