"""DNS resource records and record types.

Only the record types the reproduction actually touches are implemented
(A, NS, CNAME, TXT, OPT), but they use the genuine wire encodings so that
message sizes are exact.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

from ..netsim.addresses import int_to_ip, ip_to_int
from .wire import POINTER_FLAG, WireFormatError, decode_name, encode_name, normalise_name


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
#: Largest TTL a record may carry (RFC 2181 §8: a 31-bit value).
MAX_TTL = 0x7FFFFFFF

#: The fixed part of an RR after its owner name: TYPE, CLASS, TTL, RDLENGTH.
_RR_HEADER = struct.Struct(">HHIH")
_POINTER = struct.Struct(">H")
_RECORD_TYPES = {member.value: member for member in RecordType}


def record_type(value: int) -> RecordType:
    """The :class:`RecordType` for a wire TYPE value; unknown ones are malformed."""
    member = _RECORD_TYPES.get(value)
    if member is None:
        raise WireFormatError(f"unknown record type {value}")
    return member


@lru_cache(maxsize=1 << 16)
def _a_text(raw: bytes) -> str:
    """Dotted-quad text of four A-record RDATA bytes (memoised)."""
    return int_to_ip(int.from_bytes(raw, "big"))


def _check_ttl(ttl: int) -> None:
    if ttl < 0 or ttl > MAX_TTL:
        raise WireFormatError(f"TTL out of range: {ttl}")


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
        _check_ttl(self.ttl)
        object.__setattr__(self, "name", normalise_name(self.name))

    # -- helpers -----------------------------------------------------------
    @property
    def is_address(self) -> bool:
        return self.rtype == RecordType.A

    def with_ttl(self, ttl: int) -> ResourceRecord:
        """Copy of this record with a different TTL.  The copy skips
        ``__post_init__`` (the name is already normalised) but keeps the TTL
        check, and shares this record's RDATA wire bytes."""
        _check_ttl(ttl)
        copy = object.__new__(ResourceRecord)
        state = copy.__dict__
        state.update(self.__dict__)
        state["ttl"] = ttl
        return copy

    # -- wire format -------------------------------------------------------
    def rdata_bytes(self) -> bytes:
        """Encode the RDATA portion for this record type.

        Computed once per record: records are frozen, so the bytes never
        change, and copies made by :meth:`with_ttl` inherit them.
        """
        wire = self.__dict__.get("_rdata_wire")
        if wire is not None:
            return wire
        if self.rtype == RecordType.A:
            wire = ip_to_int(self.rdata).to_bytes(4, "big")
        elif self.rtype in (RecordType.NS, RecordType.CNAME):
            # Name compression inside RDATA is legal but not used here; the
            # size impact is irrelevant for the experiments (NS answers are
            # never the large ones).
            wire = encode_name(self.rdata)
        elif self.rtype == RecordType.TXT:
            text = self.rdata.encode("ascii")
            if len(text) > 255:
                raise WireFormatError("TXT string too long")
            wire = bytes([len(text)]) + text
        elif self.rtype == RecordType.OPT:
            wire = b""
        else:
            raise WireFormatError(f"unsupported record type {self.rtype}")
        self.__dict__["_rdata_wire"] = wire
        return wire

    def encode(self, compression: dict, offset: int) -> bytes:
        """Encode the full RR at wire ``offset``, updating the compression map."""
        return encode_records((self,), compression, offset)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple[ResourceRecord, int]:
        """Decode one RR starting at ``offset``; returns (record, next_offset)."""
        records, offset = decode_records(data, offset, 1, {})
        return records[0], offset


def encode_records(records: Iterable[ResourceRecord], compression: dict, offset: int) -> bytes:
    """Encode consecutive RRs starting at wire ``offset``, updating ``compression``.

    An owner name already in the map (every answer after the question, in
    the common case) is written as a pointer without splitting it; the RDATA
    comes from each record's memo.
    """
    out = bytearray()
    for record in records:
        pointer = compression.get(record.name)
        if pointer is None:
            out += encode_name(record.name, compression, offset + len(out))
        else:
            out += _POINTER.pack(POINTER_FLAG << 8 | pointer)
        rdata = record.rdata_bytes()
        try:
            out += _RR_HEADER.pack(record.rtype, record.rclass, record.ttl, len(rdata))
        except struct.error as exc:
            raise WireFormatError(f"RR header field out of range: {exc}") from None
        out += rdata
    return bytes(out)


def decode_records(data: bytes, offset: int, count: int,
                   owners: dict[int, str]) -> tuple[tuple[ResourceRecord, ...], int]:
    """Decode ``count`` consecutive RRs; returns (records, next_offset).

    ``owners`` is the message's owner-name table: normalised names keyed by
    the offset they were decoded from.  An owner written as a pointer to a
    known offset is taken from the table instead of decoded again, so the 89
    answers of a pool flood decode their owner name once.  Records are built
    without ``__post_init__`` (the names are already normalised); only the
    TTL range check remains.
    """
    records = []
    size = len(data)
    for _ in range(count):
        if offset + 1 < size and data[offset] >= POINTER_FLAG:
            target = (data[offset] & 0x3F) << 8 | data[offset + 1]
            name = owners.get(target)
            if name is None:
                name = owners[target] = normalise_name(decode_name(data, offset)[0])
            offset += 2
        else:
            raw_name, offset = decode_name(data, offset)
            name = normalise_name(raw_name)
        try:
            type_value, rclass, ttl, rdlength = _RR_HEADER.unpack_from(data, offset)
        except struct.error:
            raise WireFormatError("truncated RR header") from None
        rdata_start = offset + 10
        offset = rdata_start + rdlength
        if offset > size:
            raise WireFormatError("truncated RDATA")
        raw = data[rdata_start:offset]
        rtype = _RECORD_TYPES.get(type_value)
        if rtype is RecordType.A:
            if rdlength != 4:
                raise WireFormatError("A record RDATA must be 4 bytes")
            rdata = _a_text(raw)
        elif rtype is RecordType.NS or rtype is RecordType.CNAME:
            rdata, _ = decode_name(data, rdata_start)
        elif rtype is RecordType.TXT:
            try:
                rdata = raw[1:1 + raw[0]].decode("ascii") if raw else ""
            except UnicodeDecodeError:
                raise WireFormatError("non-ASCII byte in TXT string") from None
        elif rtype is RecordType.OPT:
            rdata = ""
        else:
            raise WireFormatError(f"unsupported record type {type_value}")
        if ttl > MAX_TTL:  # unsigned on the wire, so never negative
            raise WireFormatError(f"TTL out of range: {ttl}")
        record = object.__new__(ResourceRecord)
        record.__dict__.update(name=name, rtype=rtype, ttl=ttl, rdata=rdata, rclass=rclass)
        if rtype is RecordType.A:
            # Only A RDATA is canonical as received: a decoded name or TXT
            # string may re-encode to other bytes (case, pointers, padding).
            record.__dict__["_rdata_wire"] = raw
        records.append(record)
    return tuple(records), offset


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
