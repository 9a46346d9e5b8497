"""DNS wire-format primitives: domain-name encoding and compression.

The reproduction encodes DNS messages to real wire bytes because two of the
paper's quantitative claims are *size* claims:

* a benign pool.ntp.org response (4 A records) is small and unfragmented,
  but the nameservers are willing to fragment larger responses down to an
  MTU of 548 bytes — which is what the poisoning vector needs;
* an attacker can fit "up to 89" A records into a single non-fragmented DNS
  response (§IV), which is what lets a single successful poisoning flood the
  Chronos pool with malicious servers.

Both are computed from the byte layout implemented here, not hard-coded.
"""

from __future__ import annotations

from functools import lru_cache

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
POINTER_FLAG = 0xC0


class WireFormatError(ValueError):
    """Raised when encoding or decoding malformed DNS wire data.

    The only error :meth:`~repro.dns.message.DNSMessage.decode` raises, so
    receivers catch exactly this and count the drop (:func:`note_malformed`).
    """


def note_malformed(obs, site: str) -> None:
    """Count a datagram or stream frame dropped because it did not decode."""
    if obs.enabled:
        obs.metrics.counter("dns.malformed", site=site).inc()


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


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns ``(name, next_offset)`` where ``next_offset`` is the offset just
    past the name *in the original position* (pointers do not advance it
    beyond the 2 pointer bytes).  A name :func:`encode_name` rejects (an empty
    label, over 255 bytes) is malformed, so a decoded message re-encodes.
    """
    labels: list[bytes] = []
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
        labels.append(data[position:position + length])
        position += length
    try:
        name = b".".join(labels).decode("ascii")
    except UnicodeDecodeError:
        raise WireFormatError("non-ASCII byte in name") from None
    _validated_labels(normalise_name(name))
    return name, next_offset


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
