"""The 48-byte NTPv4 packet format (client/server modes).

Encoded and decoded byte-for-byte so the simulated exchanges carry the same
information as real NTP traffic; attacks that rewrite server responses
operate on these structures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .timestamps import from_short_format, ntp_to_unix, short_format, unix_to_ntp

NTP_PACKET_SIZE = 48
NTP_PORT = 123
NTP_VERSION = 4


class NTPMode(enum.IntEnum):
    """The eight RFC 5905 association modes.

    Every 3-bit value has a member, so decoding never fails on the mode;
    clients and servers drop the modes they do not speak.
    """

    RESERVED = 0
    SYMMETRIC_ACTIVE = 1
    SYMMETRIC_PASSIVE = 2
    CLIENT = 3
    SERVER = 4
    BROADCAST = 5
    CONTROL = 6
    PRIVATE = 7


class LeapIndicator(enum.IntEnum):
    NO_WARNING = 0
    LAST_MINUTE_61 = 1
    LAST_MINUTE_59 = 2
    UNSYNCHRONISED = 3


class PacketFormatError(ValueError):
    """Raised when decoding malformed NTP packets.

    The only error :meth:`NTPPacket.decode` raises, and only for input
    shorter than 48 bytes; receivers catch exactly this and count the drop
    (:func:`note_malformed`).
    """


def note_malformed(obs, site: str) -> None:
    """Count a datagram dropped because it did not decode as NTP."""
    if obs.enabled:
        obs.metrics.counter("ntp.malformed", site=site).inc()


@dataclass(frozen=True)
class NTPPacket:
    """A single NTP packet.  Timestamps are Unix-epoch float seconds."""

    mode: NTPMode
    stratum: int = 0
    leap: LeapIndicator = LeapIndicator.NO_WARNING
    version: int = NTP_VERSION
    poll: int = 6
    precision: int = -20
    root_delay: float = 0.0
    root_dispersion: float = 0.0
    reference_id: int = 0
    reference_time: float = 0.0
    origin_time: float = 0.0
    receive_time: float = 0.0
    transmit_time: float = 0.0

    # -- constructors -------------------------------------------------------
    @classmethod
    def client_request(cls, transmit_time: float) -> NTPPacket:
        """A mode-3 request; only the transmit timestamp is meaningful."""
        return cls(mode=NTPMode.CLIENT, transmit_time=transmit_time)

    def server_reply(self, receive_time: float, transmit_time: float, stratum: int,
                     reference_time: float, reference_id: int = 0,
                     root_delay: float = 0.0, root_dispersion: float = 0.0,
                     leap: LeapIndicator = LeapIndicator.NO_WARNING) -> NTPPacket:
        """Build the mode-4 reply to this request (origin = our transmit)."""
        return NTPPacket(
            mode=NTPMode.SERVER,
            stratum=stratum,
            leap=leap,
            poll=self.poll,
            root_delay=root_delay,
            root_dispersion=root_dispersion,
            reference_id=reference_id,
            reference_time=reference_time,
            origin_time=self.transmit_time,
            receive_time=receive_time,
            transmit_time=transmit_time,
        )

    # -- validity ------------------------------------------------------------
    def valid_server_reply_to(self, origin_time: float) -> bool:
        """The anti-spoofing check: the reply must echo our transmit time.

        The tolerance covers the NTP fixed-point quantisation of the echoed
        timestamp (a couple of nanoseconds at current epochs); a real client
        compares the raw 64-bit values.
        """
        return self.mode == NTPMode.SERVER and abs(self.origin_time - origin_time) < 1e-6

    # -- wire format -----------------------------------------------------------
    def encode(self) -> bytes:
        out = bytearray(NTP_PACKET_SIZE)
        out[0] = ((int(self.leap) & 0x3) << 6) | ((self.version & 0x7) << 3) | (int(self.mode) & 0x7)
        out[1] = self.stratum & 0xFF
        out[2] = self.poll & 0xFF
        out[3] = self.precision & 0xFF
        out[4:8] = short_format(self.root_delay).to_bytes(4, "big")
        out[8:12] = short_format(self.root_dispersion).to_bytes(4, "big")
        out[12:16] = (self.reference_id & 0xFFFFFFFF).to_bytes(4, "big")
        out[16:24] = unix_to_ntp(self.reference_time).to_bytes(8, "big") if self.reference_time else b"\x00" * 8
        out[24:32] = unix_to_ntp(self.origin_time).to_bytes(8, "big") if self.origin_time else b"\x00" * 8
        out[32:40] = unix_to_ntp(self.receive_time).to_bytes(8, "big") if self.receive_time else b"\x00" * 8
        out[40:48] = unix_to_ntp(self.transmit_time).to_bytes(8, "big") if self.transmit_time else b"\x00" * 8
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> NTPPacket:
        if len(data) < NTP_PACKET_SIZE:
            raise PacketFormatError(f"NTP packet too short: {len(data)} bytes")
        leap = LeapIndicator((data[0] >> 6) & 0x3)
        version = (data[0] >> 3) & 0x7
        mode = NTPMode(data[0] & 0x7)
        precision = data[3] if data[3] < 128 else data[3] - 256

        def timestamp(offset: int) -> float:
            raw = int.from_bytes(data[offset:offset + 8], "big")
            return ntp_to_unix(raw) if raw else 0.0

        return cls(
            mode=mode,
            stratum=data[1],
            leap=leap,
            version=version,
            poll=data[2],
            precision=precision,
            root_delay=from_short_format(int.from_bytes(data[4:8], "big")),
            root_dispersion=from_short_format(int.from_bytes(data[8:12], "big")),
            reference_id=int.from_bytes(data[12:16], "big"),
            reference_time=timestamp(16),
            origin_time=timestamp(24),
            receive_time=timestamp(32),
            transmit_time=timestamp(40),
        )
