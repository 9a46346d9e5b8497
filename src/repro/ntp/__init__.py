"""NTP substrate: packet format, timestamps, clocks, servers, traditional client."""

from .client import DEFAULT_MAX_SERVERS, DEFAULT_POLL_INTERVAL, PollRecord, TraditionalNTPClient
from .clock import DEFAULT_EPOCH, SystemClock
from .packet import (
    NTP_PACKET_SIZE,
    NTP_PORT,
    NTP_VERSION,
    LeapIndicator,
    NTPMode,
    NTPPacket,
    PacketFormatError,
)
from .query import NTPQuerier, TimeSample
from .selection import (
    SelectionResult,
    cluster_survivors,
    combine_offset,
    marzullo_intersection,
    ntpd_select,
    sample_interval,
    select_truechimers,
)
from .server import MaliciousNTPServer, NTPServer
from .timestamps import (
    FRACTION_SCALE,
    NTP_UNIX_EPOCH_DELTA,
    ExchangeTimestamps,
    TimestampError,
    from_short_format,
    ntp_to_unix,
    short_format,
    unix_to_ntp,
)

__all__ = [
    "DEFAULT_MAX_SERVERS",
    "DEFAULT_POLL_INTERVAL",
    "PollRecord",
    "TraditionalNTPClient",
    "DEFAULT_EPOCH",
    "SystemClock",
    "NTP_PACKET_SIZE",
    "NTP_PORT",
    "NTP_VERSION",
    "LeapIndicator",
    "NTPMode",
    "NTPPacket",
    "PacketFormatError",
    "NTPQuerier",
    "TimeSample",
    "SelectionResult",
    "combine_offset",
    "cluster_survivors",
    "marzullo_intersection",
    "ntpd_select",
    "sample_interval",
    "select_truechimers",
    "MaliciousNTPServer",
    "NTPServer",
    "FRACTION_SCALE",
    "NTP_UNIX_EPOCH_DELTA",
    "ExchangeTimestamps",
    "TimestampError",
    "from_short_format",
    "ntp_to_unix",
    "short_format",
    "unix_to_ntp",
]
