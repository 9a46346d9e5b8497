"""Differential gate for the one length-prefixed stream framer.

``FrameDecoder`` replaced two copies of the same buffer-and-split loop: the
secure channel's ``type | len16 | body`` record decoder and the RFC 1035
``len16 | body`` DNS frame decoder.  Both old loops are kept here verbatim
as references; every stream of frames, cut into arbitrary chunks, must
come out of the new framer exactly as it came out of the old one, chunk by
chunk.  The DoH decoder gets the same chunking case against its input.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.transport import (
    DNSFrameDecoder,
    DoHMessageDecoder,
    doh_request,
    doh_response,
    frame_dns,
)
from repro.netsim.transport import FrameDecoder, _frame_record


class ReferenceRecordDecoder:
    """The secure channel's record decoder before the framers merged."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buffer += data
        records: list[tuple[int, bytes]] = []
        while len(self._buffer) >= 3:
            length = int.from_bytes(self._buffer[1:3], "big")
            if len(self._buffer) < 3 + length:
                break
            records.append((self._buffer[0], bytes(self._buffer[3:3 + length])))
            del self._buffer[:3 + length]
        return records


class ReferenceDNSFrameDecoder:
    """The DNS stream decoder before the framers merged."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer += data
        messages: list[bytes] = []
        while len(self._buffer) >= 2:
            length = int.from_bytes(self._buffer[:2], "big")
            if len(self._buffer) < 2 + length:
                break
            messages.append(bytes(self._buffer[2:2 + length]))
            del self._buffer[:2 + length]
        return messages


#: The largest body a 16-bit length can carry.
LARGEST = (bytes(range(256)) * 256)[:0xFFFF]
#: Mostly short bodies, plus the two edges.
bodies = st.one_of(st.binary(max_size=80), st.sampled_from([b"", LARGEST]))


def chunked(stream: bytes, data) -> list[bytes]:
    """``stream`` cut at up to 12 drawn offsets (empty chunks included)."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    edges = [0, *cuts, len(stream)]
    return [stream[start:end] for start, end in zip(edges, edges[1:])]


@settings(max_examples=150, deadline=None)
@given(records=st.lists(st.tuples(st.integers(0, 255), bodies), max_size=6),
       tail=st.binary(max_size=4), data=st.data())
def test_record_framing_matches_the_old_record_decoder(records, tail, data):
    stream = b"".join(_frame_record(kind, body) for kind, body in records) + tail
    new, old = FrameDecoder(prefix=1), ReferenceRecordDecoder()
    outputs = [(new.feed(chunk), old.feed(chunk)) for chunk in chunked(stream, data)]
    assert [got for got, _ in outputs] == [want for _, want in outputs]
    assert [record for got, _ in outputs for record in got][:len(records)] == records


@settings(max_examples=150, deadline=None)
@given(messages=st.lists(bodies, max_size=6), tail=st.binary(max_size=3),
       data=st.data())
def test_dns_framing_matches_the_old_frame_decoder(messages, tail, data):
    stream = b"".join(frame_dns(message) for message in messages) + tail
    new, old = DNSFrameDecoder(), ReferenceDNSFrameDecoder()
    outputs = [(new.feed(chunk), old.feed(chunk)) for chunk in chunked(stream, data)]
    assert [got for got, _ in outputs] == [want for _, want in outputs]
    assert [message for got, _ in outputs for message in got][:len(messages)] == messages


@settings(max_examples=100, deadline=None)
@given(messages=st.lists(bodies, max_size=6), response=st.booleans(), data=st.data())
def test_doh_decoder_reassembles_any_chunking(messages, response, data):
    wrap = doh_response if response else doh_request
    stream = b"".join(wrap(message) for message in messages)
    decoder = DoHMessageDecoder()
    decoded = [message for chunk in chunked(stream, data)
               for message in decoder.feed(chunk)]
    assert decoded == messages
