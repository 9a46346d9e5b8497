"""NTP timestamp arithmetic.

NTP represents time as a 64-bit fixed-point number: 32 bits of seconds since
1 January 1900 and 32 bits of fraction.  The simulation keeps time as float
seconds on a Unix-like epoch; these helpers convert between the two and
implement the four-timestamp offset/delay computation every NTP client
(traditional or Chronos) performs on a server exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds between the NTP epoch (1900-01-01) and the Unix epoch (1970-01-01).
NTP_UNIX_EPOCH_DELTA = 2208988800
#: 2**32, the fixed-point scale of the fractional part.
FRACTION_SCALE = 1 << 32


class TimestampError(ValueError):
    """Raised for timestamps outside the representable NTP range."""


def unix_to_ntp(unix_seconds: float) -> int:
    """Convert Unix-epoch float seconds to a 64-bit NTP timestamp.

    The integer and fractional parts are split *before* adding the 1900/1970
    epoch delta so the conversion keeps the full float precision of the input
    (adding ~2.2e9 in floating point first would throw away sub-microsecond
    precision and break the origin-timestamp echo check clients rely on).
    """
    if unix_seconds + NTP_UNIX_EPOCH_DELTA < 0:
        raise TimestampError(f"time before NTP epoch: {unix_seconds}")
    whole = int(unix_seconds // 1)
    fractional = unix_seconds - whole
    seconds = whole + NTP_UNIX_EPOCH_DELTA
    fraction = int(round(fractional * FRACTION_SCALE))
    if fraction >= FRACTION_SCALE:
        seconds += 1
        fraction = 0
    if seconds >= 1 << 32:
        raise TimestampError(f"time beyond NTP era 0: {unix_seconds}")
    if seconds < 0:
        raise TimestampError(f"time before NTP epoch: {unix_seconds}")
    return (seconds << 32) | fraction


def ntp_to_unix(ntp_timestamp: int) -> float:
    """Convert a 64-bit NTP timestamp back to Unix-epoch float seconds."""
    if not 0 <= ntp_timestamp < 1 << 64:
        raise TimestampError(f"timestamp out of range: {ntp_timestamp}")
    seconds = ntp_timestamp >> 32
    fraction = ntp_timestamp & 0xFFFFFFFF
    return seconds - NTP_UNIX_EPOCH_DELTA + fraction / FRACTION_SCALE


def short_format(seconds: float) -> int:
    """Encode a small interval (root delay/dispersion) in NTP short format."""
    if seconds < 0:
        raise TimestampError("negative interval")
    value = int(round(seconds * (1 << 16)))
    return min(value, 0xFFFFFFFF)


def from_short_format(value: int) -> float:
    """Decode NTP short format back to float seconds."""
    return value / (1 << 16)


@dataclass(frozen=True)
class ExchangeTimestamps:
    """The four timestamps of one client/server exchange.

    ``origin``    (t1) — client clock when the request left;
    ``receive``   (t2) — server clock when the request arrived;
    ``transmit``  (t3) — server clock when the response left;
    ``destination`` (t4) — client clock when the response arrived.
    """

    origin: float
    receive: float
    transmit: float
    destination: float

    @property
    def offset(self) -> float:
        """Estimated offset of the server clock relative to the client clock."""
        return ((self.receive - self.origin) + (self.transmit - self.destination)) / 2.0

    @property
    def delay(self) -> float:
        """Round-trip network delay of the exchange."""
        return (self.destination - self.origin) - (self.transmit - self.receive)
