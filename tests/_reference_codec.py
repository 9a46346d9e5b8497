"""Frozen copy of the DNS codec as it stood before the one-pass rewrite.

Test-only reference for the differential gate in
``tests/test_dns_codec_differential.py``: the per-field codec of
``repro.dns.wire``, ``repro.dns.records`` and ``repro.dns.message`` plus
the dotted-quad helpers of ``repro.netsim.addresses``, copied verbatim
into one module (only the imports are merged).  Do not edit it to track
the live codec; it is the behaviour the live codec is compared against.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional


class AddressError(ValueError):
    """Raised for malformed IPv4 addresses or prefixes."""


def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to its 32-bit integer value."""
    parts = address.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address: {address!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 address."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"value out of IPv4 range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
POINTER_FLAG = 0xC0


class WireFormatError(ValueError):
    """Raised when encoding or decoding malformed DNS wire data."""


def normalise_name(name: str) -> str:
    """Lower-case a domain name and strip any trailing dot.

    DNS names are case-insensitive; the cache and the poisoning checks all
    operate on normalised names so ``Pool.NTP.org.`` and ``pool.ntp.org``
    collide as they do in a real resolver.
    """
    return name.rstrip(".").lower()


@lru_cache(maxsize=4096)
def _validated_labels(name: str) -> tuple[str, ...]:
    """Split an already-normalised name into validated labels.

    Cached because experiments encode the same handful of names (the zone
    apex, sub-pools, attacker decoys) millions of times per sweep; splitting
    and re-validating per encode dominated the encode path.
    """
    if not name:
        return ()
    labels = tuple(name.split("."))
    for label in labels:
        if not label:
            raise WireFormatError(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_LENGTH:
            raise WireFormatError(f"label too long in {name!r}")
    encoded_length = sum(len(label) + 1 for label in labels) + 1
    if encoded_length > MAX_NAME_LENGTH:
        raise WireFormatError(f"name too long: {name!r}")
    return labels


def name_to_labels(name: str) -> list[str]:
    """Split a domain name into its labels, validating lengths."""
    return list(_validated_labels(normalise_name(name)))


def encode_name(name: str, compression: dict[str, int] = None, offset: int = 0) -> bytes:
    """Encode a domain name, optionally using/updating a compression map.

    ``compression`` maps a (normalised) name suffix to the wire offset where
    it was first written.  When a suffix is already present a 2-byte pointer
    is emitted instead, which is how a real response packs 89 A records whose
    owner name is all the same.
    """
    if compression is None:
        return _plain_name_wire(normalise_name(name))
    labels = name_to_labels(name)
    out = bytearray()
    for index in range(len(labels)):
        suffix = ".".join(labels[index:])
        if suffix in compression:
            pointer = compression[suffix]
            out += bytes([POINTER_FLAG | (pointer >> 8), pointer & 0xFF])
            return bytes(out)
        if offset + len(out) <= 0x3FFF:
            compression[suffix] = offset + len(out)
        label = labels[index]
        out += bytes([len(label)]) + label.encode("ascii")
    out += b"\x00"
    return bytes(out)


@lru_cache(maxsize=4096)
def _plain_name_wire(name: str) -> bytes:
    """Uncompressed wire encoding of an already-normalised name (cached)."""
    out = bytearray()
    for label in _validated_labels(name):
        out += bytes([len(label)]) + label.encode("ascii")
    out += b"\x00"
    return bytes(out)


def encoded_name_length(name: str, compressed: bool) -> int:
    """Length in bytes of an encoded name (2 when a compression pointer is used)."""
    if compressed:
        return 2
    labels = name_to_labels(name)
    return sum(len(label) + 1 for label in labels) + 1


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns ``(name, next_offset)`` where ``next_offset`` is the offset just
    past the name *in the original position* (pointers do not advance it
    beyond the 2 pointer bytes).
    """
    labels: list[str] = []
    position = offset
    jumped = False
    next_offset = offset
    seen_pointers = set()
    while True:
        if position >= len(data):
            raise WireFormatError("truncated name")
        length = data[position]
        if length & POINTER_FLAG == POINTER_FLAG:
            if position + 1 >= len(data):
                raise WireFormatError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[position + 1]
            if pointer in seen_pointers:
                raise WireFormatError("compression pointer loop")
            seen_pointers.add(pointer)
            if not jumped:
                next_offset = position + 2
                jumped = True
            position = pointer
            continue
        if length & POINTER_FLAG:
            raise WireFormatError(f"reserved label type 0x{length:02x}")
        position += 1
        if length == 0:
            if not jumped:
                next_offset = position
            break
        if position + length > len(data):
            raise WireFormatError("truncated label")
        labels.append(data[position:position + length].decode("ascii"))
        position += length
    return ".".join(labels), next_offset


def apply_case_pattern(name_bytes: bytes, nonce: int) -> bytes:
    """Re-case the letters of an encoded (uncompressed) name per ``nonce``.

    Bit *i* of ``nonce`` (LSB first) decides whether the *i*-th alphabetic
    character is upper-cased — the DNS-0x20 encoding: the case pattern rides
    inside the question name itself, so it is covered by the very bytes a
    response must echo.
    """
    out = bytearray(name_bytes)
    position = 0
    bit = 0
    while position < len(out):
        length = out[position]
        if length == 0 or length & POINTER_FLAG:
            break
        position += 1
        for index in range(position, position + length):
            char = out[index]
            if 65 <= char <= 90 or 97 <= char <= 122:
                out[index] = (char & ~0x20) if (nonce >> bit) & 1 else (char | 0x20)
                bit += 1
        position += length
    return bytes(out)


def extract_case_pattern(name_bytes: bytes) -> tuple[int, int]:
    """Recover ``(nonce, letter_count)`` from an encoded name's letter cases."""
    nonce = 0
    bit = 0
    position = 0
    while position < len(name_bytes):
        length = name_bytes[position]
        if length == 0 or length & POINTER_FLAG:
            break
        position += 1
        for index in range(position, position + length):
            char = name_bytes[index]
            if 65 <= char <= 90:
                nonce |= 1 << bit
                bit += 1
            elif 97 <= char <= 122:
                bit += 1
        position += length
    return nonce, bit


def letter_count(name: str) -> int:
    """Number of alphabetic characters in a name (the 0x20 entropy in bits)."""
    return sum(1 for char in normalise_name(name) if char.isalpha())


def pack_uint16(value: int) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise WireFormatError(f"uint16 out of range: {value}")
    return value.to_bytes(2, "big")


def pack_uint32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise WireFormatError(f"uint32 out of range: {value}")
    return value.to_bytes(4, "big")


def unpack_uint16(data: bytes, offset: int) -> int:
    if offset + 2 > len(data):
        raise WireFormatError("truncated uint16")
    return int.from_bytes(data[offset:offset + 2], "big")


def unpack_uint32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise WireFormatError("truncated uint32")
    return int.from_bytes(data[offset:offset + 4], "big")


class RecordType(enum.IntEnum):
    """DNS RR TYPE values (subset)."""

    A = 1
    NS = 2
    CNAME = 5
    TXT = 16
    AAAA = 28
    OPT = 41


class RecordClass(enum.IntEnum):
    """DNS RR CLASS values (IN only, plus the EDNS payload-size overload)."""

    IN = 1


#: Seconds in a day; the attack sets TTLs *above* this so that every
#: subsequent hourly Chronos query is served from cache.
SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class ResourceRecord:
    """A single DNS resource record.

    ``rdata`` is type-specific structured data:

    * ``A`` — dotted-quad address string;
    * ``NS`` / ``CNAME`` — target domain name;
    * ``TXT`` — text string;
    * ``OPT`` — ignored (EDNS uses the class/ttl fields for its payload).
    """

    name: str
    rtype: RecordType
    ttl: int
    rdata: str
    rclass: int = RecordClass.IN

    def __post_init__(self) -> None:
        if self.ttl < 0 or self.ttl > 0x7FFFFFFF:
            raise WireFormatError(f"TTL out of range: {self.ttl}")
        object.__setattr__(self, "name", normalise_name(self.name))

    # -- helpers -----------------------------------------------------------
    @property
    def is_address(self) -> bool:
        return self.rtype == RecordType.A

    def with_ttl(self, ttl: int) -> ResourceRecord:
        """Copy of this record with a different TTL (cache decrementing)."""
        return ResourceRecord(self.name, self.rtype, ttl, self.rdata, self.rclass)

    # -- wire format -------------------------------------------------------
    def rdata_bytes(self) -> bytes:
        """Encode the RDATA portion for this record type."""
        if self.rtype == RecordType.A:
            return ip_to_int(self.rdata).to_bytes(4, "big")
        if self.rtype in (RecordType.NS, RecordType.CNAME):
            # Name compression inside RDATA is legal but not used here; the
            # size impact is irrelevant for the experiments (NS answers are
            # never the large ones).
            return encode_name(self.rdata)
        if self.rtype == RecordType.TXT:
            text = self.rdata.encode("ascii")
            if len(text) > 255:
                raise WireFormatError("TXT string too long")
            return bytes([len(text)]) + text
        if self.rtype == RecordType.OPT:
            return b""
        raise WireFormatError(f"unsupported record type {self.rtype}")

    def encode(self, compression: dict, offset: int) -> bytes:
        """Encode the full RR, updating the compression map."""
        out = bytearray()
        out += encode_name(self.name, compression, offset)
        out += pack_uint16(int(self.rtype))
        out += pack_uint16(int(self.rclass))
        out += pack_uint32(self.ttl)
        rdata = self.rdata_bytes()
        out += pack_uint16(len(rdata))
        out += rdata
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["ResourceRecord", int]:
        """Decode one RR starting at ``offset``; returns (record, next_offset)."""
        name, offset = decode_name(data, offset)
        rtype = RecordType(unpack_uint16(data, offset))
        rclass = unpack_uint16(data, offset + 2)
        ttl = unpack_uint32(data, offset + 4)
        rdlength = unpack_uint16(data, offset + 8)
        rdata_start = offset + 10
        rdata_end = rdata_start + rdlength
        if rdata_end > len(data):
            raise WireFormatError("truncated RDATA")
        raw = data[rdata_start:rdata_end]
        if rtype == RecordType.A:
            if rdlength != 4:
                raise WireFormatError("A record RDATA must be 4 bytes")
            rdata = int_to_ip(int.from_bytes(raw, "big"))
        elif rtype in (RecordType.NS, RecordType.CNAME):
            rdata, _ = decode_name(data, rdata_start)
        elif rtype == RecordType.TXT:
            rdata = raw[1:1 + raw[0]].decode("ascii") if raw else ""
        elif rtype == RecordType.OPT:
            rdata = ""
        else:
            raise WireFormatError(f"unsupported record type {rtype}")
        record = cls(name=name or ".", rtype=rtype, ttl=ttl, rdata=rdata, rclass=rclass)
        return record, rdata_end


def rrset_signature(zone_key: str, name: str, records: Sequence[ResourceRecord]) -> str:
    """Deterministic signature over an A RRset (the DNSSEC-style model).

    A real RRSIG is a public-key signature over the canonical RRset; the
    simulation models it as a keyed digest — only code holding ``zone_key``
    can produce it, and the off-path attacker never does.  The digest covers
    owner name, record data *and TTLs*, so a spliced or forged answer (whose
    records or TTLs differ) cannot reuse a genuine signature.
    """
    payload = "|".join([zone_key, normalise_name(name)]
                       + sorted(f"{r.rdata}/{r.ttl}" for r in records if r.rtype == RecordType.A))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def signature_record(zone_key: str, name: str,
                     records: Sequence[ResourceRecord]) -> ResourceRecord:
    """The signature as a TXT record appended to the answer section.

    Like a real RRSIG it travels at the end of the answers — i.e. in the
    *trailing* fragment of a fragmented response, which is exactly the part a
    defragmentation-cache attacker substitutes.  Resolvers only cache records
    matching the question type, so the TXT never leaks into answers.
    """
    return ResourceRecord(name=name, rtype=RecordType.TXT, ttl=0,
                          rdata=rrset_signature(zone_key, name, records))


def a_record(name: str, address: str, ttl: int) -> ResourceRecord:
    """Convenience constructor for an A record."""
    return ResourceRecord(name=name, rtype=RecordType.A, ttl=ttl, rdata=address)


def opt_record(payload_size: int = 4096) -> ResourceRecord:
    """EDNS0 OPT pseudo-record advertising ``payload_size`` bytes.

    EDNS is what allows UDP DNS responses larger than 512 bytes in the first
    place — both the fragmented benign responses the poisoning vector needs
    and the attacker's jumbo 89-record response depend on it, so responses in
    the simulation carry the OPT record and pay its 11 bytes.
    """
    return ResourceRecord(name=".", rtype=RecordType.OPT, ttl=0, rdata="", rclass=payload_size)


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


class ResponseCode(enum.IntEnum):
    """DNS RCODE values (subset)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    REFUSED = 5


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
    dnssec_ok: bool = False
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
              edns_payload: int = 4096, dnssec_ok: bool = False) -> DNSMessage:
        """Build a standard recursive query with an EDNS OPT record."""
        additional = (opt_record(edns_payload),) if edns_payload else ()
        return cls(
            transaction_id=transaction_id,
            question=Question(name=name, qtype=qtype),
            is_response=False,
            additional=additional,
            dnssec_ok=dnssec_ok,
        )

    def make_response(self, answers: list[ResourceRecord],
                      rcode: ResponseCode = ResponseCode.NOERROR,
                      authoritative: bool = True,
                      edns_payload: int = 4096) -> DNSMessage:
        """Build a response to this query, echoing id and question."""
        additional = (opt_record(edns_payload),) if edns_payload else ()
        return replace(
            self,
            is_response=True,
            answers=tuple(answers),
            authority=(),
            additional=additional,
            rcode=rcode,
            authoritative=authoritative,
            recursion_available=True,
        )

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

        The wire form is memoised on the instance: the message is frozen, so
        its bytes never change, and attack hot paths (spoofed-response
        bursts, repeated hijack answers) encode the same message many times.
        """
        cached = self.__dict__.get("_wire")
        if cached is not None:
            return cached
        out = bytearray()
        out += pack_uint16(self.transaction_id)
        out += pack_uint16(self.flags())
        out += pack_uint16(1)
        out += pack_uint16(len(self.answers))
        out += pack_uint16(len(self.authority))
        out += pack_uint16(len(self.additional))
        compression: dict = {}
        name_start = len(out)
        out += encode_name(self.question.name, compression, len(out))
        if self.case_nonce:
            # The compression map is keyed on the canonical lower-case name;
            # only the emitted bytes change case, so pointers still resolve.
            out[name_start:] = apply_case_pattern(bytes(out[name_start:]), self.case_nonce)
        out += pack_uint16(int(self.question.qtype))
        out += pack_uint16(int(self.question.qclass))
        if self.cookie is not None:
            out += self.cookie.to_bytes(COOKIE_SIZE, "big")
        for section in (self.answers, self.authority, self.additional):
            for record in section:
                out += record.encode(compression, len(out))
        wire = bytes(out)
        object.__setattr__(self, "_wire", wire)
        return wire

    @property
    def wire_size(self) -> int:
        """Size of the encoded message in bytes."""
        return len(self.encode())

    @classmethod
    def decode(cls, data: bytes) -> DNSMessage:
        """Parse wire bytes back into a message (single-question only)."""
        if len(data) < DNS_HEADER_SIZE:
            raise WireFormatError("truncated DNS header")
        transaction_id = unpack_uint16(data, 0)
        flags = unpack_uint16(data, 2)
        qdcount = unpack_uint16(data, 4)
        ancount = unpack_uint16(data, 6)
        nscount = unpack_uint16(data, 8)
        arcount = unpack_uint16(data, 10)
        if qdcount != 1:
            raise WireFormatError(f"unsupported question count: {qdcount}")
        offset = DNS_HEADER_SIZE
        qname, offset = decode_name(data, offset)
        nonce, _ = extract_case_pattern(data[DNS_HEADER_SIZE:offset])
        qtype = RecordType(unpack_uint16(data, offset))
        qclass = unpack_uint16(data, offset + 2)
        offset += 4
        cookie: Optional[int] = None
        if flags & COOKIE_FLAG:
            if offset + COOKIE_SIZE > len(data):
                raise WireFormatError("truncated cookie block")
            cookie = int.from_bytes(data[offset:offset + COOKIE_SIZE], "big")
            offset += COOKIE_SIZE
        sections: list[list[ResourceRecord]] = []
        for count in (ancount, nscount, arcount):
            records: list[ResourceRecord] = []
            for _ in range(count):
                record, offset = ResourceRecord.decode(data, offset)
                records.append(record)
            sections.append(records)
        return cls(
            transaction_id=transaction_id,
            question=Question(name=qname, qtype=qtype, qclass=qclass),
            is_response=bool(flags & 0x8000),
            answers=tuple(sections[0]),
            authority=tuple(sections[1]),
            additional=tuple(sections[2]),
            rcode=ResponseCode(flags & 0x000F),
            recursion_desired=bool(flags & 0x0100),
            recursion_available=bool(flags & 0x0080),
            authoritative=bool(flags & 0x0400),
            truncated=bool(flags & 0x0200),
            cookie=cookie,
            # All-lowercase decodes to None so that cookie-less, case-less
            # messages round-trip to objects equal to their originals.
            case_nonce=nonce or None,
        )


def response_size_for_a_records(qname: str, record_count: int, with_edns: bool = True) -> int:
    """Wire size of a response to ``qname`` carrying ``record_count`` A records.

    Computed analytically from the layout (and cross-checked against the real
    encoder in the test suite).
    """
    question_size = len(encode_name(qname)) + 4
    size = DNS_HEADER_SIZE + question_size + record_count * COMPRESSED_A_RECORD_SIZE
    if with_edns:
        size += OPT_RECORD_SIZE
    return size


def max_a_records_for_payload(qname: str, payload_limit: int = MAX_UNFRAGMENTED_UDP_PAYLOAD,
                              with_edns: bool = True) -> int:
    """Maximum number of A records that fit in a response of ``payload_limit`` bytes.

    With the pool.ntp.org question name, EDNS enabled and the conventional
    1472-byte unfragmented UDP budget this evaluates to 89 — the figure the
    paper quotes for the attacker's single-response pool flood.
    """
    question_size = len(encode_name(qname)) + 4
    fixed = DNS_HEADER_SIZE + question_size + (OPT_RECORD_SIZE if with_edns else 0)
    if payload_limit < fixed:
        return 0
    return (payload_limit - fixed) // COMPRESSED_A_RECORD_SIZE
