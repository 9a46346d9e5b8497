"""Shared client-side machinery for querying NTP servers.

Both the traditional NTP client (the paper's baseline) and the Chronos client
use the same request/response exchange; what differs is *which* servers they
ask and how the resulting samples are combined.  :class:`NTPQuerier` owns the
exchange: it sends a mode-3 request, matches the mode-4 reply by the echoed
origin timestamp (the standard anti-spoofing nonce), and produces a
:class:`TimeSample` with the four-timestamp offset/delay computation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from ..netsim.network import Host
from ..netsim.packets import UDPDatagram
from .clock import SystemClock
from .packet import NTP_PORT, NTPMode, NTPPacket, PacketFormatError, note_malformed
from .timestamps import ExchangeTimestamps


@dataclass(frozen=True)
class TimeSample:
    """One completed exchange with one server."""

    server: str
    offset: float
    delay: float
    stratum: int
    root_dispersion: float
    completed_at: float

    @property
    def plausible(self) -> bool:
        """Bounded, non-negative delay — the minimal sanity filter."""
        return 0.0 <= self.delay <= 16.0


#: Seconds a query waits for the server's reply before it yields ``None``.
QUERY_TIMEOUT = 2.0

#: Callback receiving the sample, or ``None`` when the query timed out.
SampleCallback = Callable[[Optional[TimeSample]], None]


@dataclass
class _PendingQuery:
    server: str
    origin_time: float
    callback: SampleCallback
    timeout_handle: object


class NTPQuerier:
    """Issues NTP client requests from a host and collects samples.

    Each query is one exchange: a server that does not answer within
    ``QUERY_TIMEOUT`` seconds yields ``None``.
    """

    def __init__(self, host: Host, clock: SystemClock) -> None:
        self.host = host
        self.clock = clock
        self._pending: dict[tuple[str, int], _PendingQuery] = {}

    def query(self, server_address: str, callback: SampleCallback) -> None:
        """Send one request to ``server_address``; callback fires exactly once."""
        origin_time = self.clock.now()
        request = NTPPacket.client_request(transmit_time=origin_time)
        port = self.host.network.simulator.rng.randrange(20000, 60000)
        key = (server_address, port)
        # Re-draw on a (server, port) collision with an in-flight query:
        # overwriting the pending entry would orphan its callback (the reply
        # matches whichever entry holds the key), wedging clients that query
        # the same server many times concurrently — e.g. panic mode over an
        # address-counting (dedupe=False) pool.  Collisions are impossible
        # when concurrent queries target distinct servers, so this loop
        # consumes no extra draws there.
        while key in self._pending:
            port = self.host.network.simulator.rng.randrange(20000, 60000)
            key = (server_address, port)
        handle = self.host.network.simulator.schedule(
            QUERY_TIMEOUT, lambda k=key: self._on_timeout(k))
        self._pending[key] = _PendingQuery(server_address, origin_time, callback, handle)
        obs = self.host.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("ntp.queries_sent").inc()
        self.host.send_udp(server_address, port, NTP_PORT, request.encode())

    def _on_timeout(self, key: tuple[str, int]) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        obs = self.host.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("ntp.query_timeouts").inc()
            obs.trace.instant("ntp.timeout", category="ntp",
                              client=self.host.address, server=pending.server)
        pending.callback(None)

    def handle_datagram(self, datagram: UDPDatagram) -> bool:
        """Offer an incoming datagram; returns True when it was an NTP reply."""
        if datagram.src_port != NTP_PORT:
            return False
        try:
            packet = NTPPacket.decode(datagram.payload)
        except PacketFormatError:
            note_malformed(self.host.network.simulator.obs, "client")
            return False
        if packet.mode != NTPMode.SERVER:
            return False
        key = (datagram.src_ip, datagram.dst_port)
        pending = self._pending.get(key)
        if pending is None:
            return True
        if not packet.valid_server_reply_to(pending.origin_time):
            obs = self.host.network.simulator.obs
            if obs.enabled:
                obs.metrics.counter("ntp.invalid_responses").inc()
                obs.trace.instant("ntp.invalid_response", category="ntp",
                                  client=self.host.address,
                                  server=datagram.src_ip)
            return True
        del self._pending[key]
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        destination_time = self.clock.now()
        exchange = ExchangeTimestamps(
            origin=packet.origin_time,
            receive=packet.receive_time,
            transmit=packet.transmit_time,
            destination=destination_time,
        )
        sample = TimeSample(
            server=datagram.src_ip,
            offset=exchange.offset,
            delay=exchange.delay,
            stratum=packet.stratum,
            root_dispersion=packet.root_dispersion,
            completed_at=self.host.network.simulator.now,
        )
        obs = self.host.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("ntp.samples_collected").inc()
            obs.metrics.histogram("ntp.sample_offset_abs").observe(abs(sample.offset))
        pending.callback(sample)
        return True
