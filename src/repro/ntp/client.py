"""The traditional NTP client — the paper's baseline victim.

It mirrors the behaviour the paper attributes to "plain NTP" clients:

* one DNS resolution of the pool hostname at start-up, yielding the (up to
  four) upstream servers the client will use from then on;
* periodic polling of those servers;
* the classic select/cluster/combine pipeline to discipline the clock.

The single start-up DNS query is exactly why the paper calls attacking a
traditional client via DNS *harder* than attacking Chronos: the attacker gets
one shot at the poisoning race instead of 24.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..defenses.stack import DefenseStack
from ..dns.nameserver import DEFAULT_ZONE
from ..dns.resolver import DNSStub
from ..netsim.network import Host, Network
from ..netsim.packets import UDPDatagram
from .clock import SystemClock
from .query import NTPQuerier, TimeSample
from .selection import SelectionResult, ntpd_select

DEFAULT_POLL_INTERVAL = 64.0
DEFAULT_MAX_SERVERS = 4


@dataclass
class PollRecord:
    """Diagnostics for one completed poll round."""

    started_at: float
    samples: list[TimeSample] = field(default_factory=list)
    result: Optional[SelectionResult] = None
    applied_offset: Optional[float] = None


class TraditionalNTPClient(Host):
    """An ntpd-style client using up to four servers from one DNS lookup."""

    def __init__(self, network: Network, address: str, resolver_address: str,
                 hostname: str = DEFAULT_ZONE,
                 max_servers: int = DEFAULT_MAX_SERVERS,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 clock: Optional[SystemClock] = None,
                 name: Optional[str] = None,
                 defenses: Optional[DefenseStack] = None) -> None:
        super().__init__(network, address, name=name or f"ntp-client-{address}")
        self.clock = clock or SystemClock(network.simulator)
        self.dns = DNSStub(self, resolver_address)
        self.querier = NTPQuerier(self, self.clock)
        #: NTP-sample vetoes from the experiment's defense stack.
        self.defenses = defenses
        self.hostname = hostname
        self.max_servers = max_servers
        self.poll_interval = poll_interval
        self.servers: list[str] = []
        self.poll_history: list[PollRecord] = []
        self.started = False
        self._current_poll: Optional[PollRecord] = None
        self._outstanding = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Resolve the pool hostname, then begin periodic polling."""
        if self.started:
            return
        self.started = True
        self.dns.lookup(self.hostname, self._on_resolved)

    def _on_resolved(self, addresses: list[str]) -> None:
        self.servers = addresses[: self.max_servers]
        if not self.servers:
            # Resolution failed; retry after a backoff, as real clients do.
            self.network.simulator.schedule(30.0, lambda: self.dns.lookup(self.hostname, self._on_resolved))
            return
        self._poll()

    # -- polling -----------------------------------------------------------------
    def _poll(self) -> None:
        if not self.servers:
            return
        record = PollRecord(started_at=self.network.simulator.now)
        self._current_poll = record
        self._outstanding = len(self.servers)
        for server in self.servers:
            self.querier.query(server, self._on_sample)

    def _on_sample(self, sample: Optional[TimeSample]) -> None:
        record = self._current_poll
        if record is None:
            return
        if (sample is not None and self.defenses is not None
                and not self.defenses.on_ntp_sample(sample)):
            sample = None  # vetoed by a defense; treat like a lost exchange
        if sample is not None:
            record.samples.append(sample)
        self._outstanding -= 1
        if self._outstanding == 0:
            self._finish_poll(record)

    def _finish_poll(self, record: PollRecord) -> None:
        self._current_poll = None
        if record.samples:
            result = ntpd_select(record.samples)
            record.result = result
            if result.succeeded:
                offset = result.offset
                record.applied_offset = offset
                if offset:
                    self.clock.adjust(offset)
        self.poll_history.append(record)
        self.network.simulator.schedule(self.poll_interval, self._poll)

    # -- datagram dispatch ---------------------------------------------------------
    def handle_datagram(self, datagram: UDPDatagram) -> None:
        if self.dns.handle_datagram(datagram):
            return
        self.querier.handle_datagram(datagram)
