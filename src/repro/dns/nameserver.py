"""Authoritative nameservers, including a faithful pool.ntp.org model.

pool.ntp.org behaviour that matters to the reproduction:

* each response to an A query carries **4** addresses drawn from a large,
  rotating set of volunteer NTP servers (this is why Chronos needs 24 hourly
  queries to accumulate ~96 servers);
* the records have a short TTL (150 seconds in the real zone), so each hourly
  Chronos query is a cache miss and reaches the authoritative server again;
* per the paper's companion measurement ([3]), 16 of the 30 pool.ntp.org
  nameservers are willing to fragment their responses down to a 548-byte MTU
  and do not serve DNSSEC — the combination the fragmentation-poisoning
  vector requires.  Fragmentation behaviour is configured via the network's
  per-source path MTU; the DNSSEC flag lives here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace
from typing import Optional

from ..netsim.network import Host, Network
from ..netsim.packets import UDPDatagram
from .message import DNSMessage, ResponseCode
from .records import RecordType, a_record, signature_record
from .wire import WireFormatError, normalise_name, note_malformed

DNS_PORT = 53
#: The zone every experiment resolves, matching the paper.
DEFAULT_ZONE = "pool.ntp.org"
#: TTL used by the real pool.ntp.org zone for A records.
POOL_NTP_ORG_TTL = 150
#: Number of A records per pool.ntp.org response.
POOL_RECORDS_PER_RESPONSE = 4
#: Response-rate limiting: sustained UDP responses per second per source
#: /24, the bucket depth a cold prefix starts with, and the cadence at which
#: suppressed responses slip out truncated (every second one).
RRL_RATE = 1.0
RRL_BURST = 2.0
RRL_SLIP = 2


class ResponseRateLimiter:
    """BIND-style response-rate limiting (RRL) for UDP answers.

    Token bucket per source /24 (BIND's ``responses-per-second``
    aggregation): each UDP response costs one token; buckets refill at
    :data:`RRL_RATE` tokens per second up to :data:`RRL_BURST`.  When a
    bucket is empty the response is **dropped**, except that every
    :data:`RRL_SLIP`-th suppressed response goes out *truncated* (TC=1,
    empty sections) instead — small, unspoofable-to-amplify, and it tells a
    legitimate resolver to retry over TCP where RRL does not apply.

    Entirely deterministic: no RNG, state is a pure function of the
    response timeline, so digests are identical across worker counts.
    Stream (TCP/DoT/DoH) responses are never limited — that asymmetry is
    the point: a throttled resolver falls back to the transport an
    off-path attacker cannot race.
    """

    def __init__(self) -> None:
        #: /24 prefix -> (tokens, last-refill timestamp)
        self._buckets: dict[str, tuple[float, float]] = {}
        #: /24 prefix -> suppressed-response count (drives the slip cadence)
        self._suppressed: dict[str, int] = {}
        self.responses_dropped = 0
        self.responses_slipped = 0

    def check(self, address: str, now: float) -> str:
        """Classify one UDP response: ``"send"``, ``"slip"`` or ``"drop"``."""
        prefix = address.rsplit(".", 1)[0]
        tokens, last = self._buckets.get(prefix, (RRL_BURST, now))
        tokens = min(RRL_BURST, tokens + (now - last) * RRL_RATE)
        if tokens >= 1.0:
            self._buckets[prefix] = (tokens - 1.0, now)
            return "send"
        self._buckets[prefix] = (tokens, now)
        count = self._suppressed.get(prefix, 0) + 1
        self._suppressed[prefix] = count
        if count % RRL_SLIP == 0:
            self.responses_slipped += 1
            return "slip"
        self.responses_dropped += 1
        return "drop"


class AuthoritativeNameserver(Host):
    """A simple authoritative server answering A queries from a static zone."""

    def __init__(self, network: Network, address: str, zone: dict[str, list[str]],
                 ttl: int = 300, name: Optional[str] = None,
                 udp_payload_limit: Optional[int] = None) -> None:
        super().__init__(network, address, name=name or f"ns-{address}")
        self.zone = {normalise_name(owner): list(addresses) for owner, addresses in zone.items()}
        self.ttl = ttl
        #: When set, every answer RRset is signed (appended signature record);
        #: set by the ``response_signing`` defense.
        self.zone_key: Optional[str] = None
        #: Largest UDP response payload this server sends (``None`` = no
        #: limit).  Responses that would exceed it go out *truncated* —
        #: empty answer section, TC=1 — telling the resolver to retry over a
        #: stream transport.  Stream (TCP/DoT/DoH) responses never truncate.
        self.udp_payload_limit = udp_payload_limit
        #: Stream listeners, when attached (see ``repro.dns.transport``).
        self.stream_transport = None
        #: UDP response-rate limiter, when attached (the
        #: ``response_rate_limit`` defense); ``None`` = unlimited.
        self.rate_limiter: Optional[ResponseRateLimiter] = None
        self.queries_received = 0

    # -- zone management -----------------------------------------------------
    def records_for(self, owner: str) -> list[str]:
        return self.zone.get(normalise_name(owner), [])

    # -- answering -------------------------------------------------------------
    def select_addresses(self, owner: str) -> list[str]:
        """Which addresses to include in a response (all of them, by default)."""
        return self.records_for(owner)

    def answer_query(self, query: DNSMessage) -> DNSMessage:
        """Build the authoritative response to one query (any transport).

        ``make_response`` echoes the query's transaction id, question case
        pattern and cookie, so hardening defenses validate identically over
        UDP and over the stream transports.
        """
        addresses = self.select_addresses(query.question.name)
        if addresses and query.question.qtype == RecordType.A:
            answers = [a_record(query.question.name, address, self.ttl) for address in addresses]
            if self.zone_key is not None:
                # The signature travels at the end of the answer section —
                # in the trailing fragment of a fragmented response, exactly
                # where the defragmentation attacker splices.
                answers.append(signature_record(self.zone_key, query.question.name, answers))
            return query.make_response(answers)
        return query.make_response([], rcode=ResponseCode.NXDOMAIN)

    # The one counting site of every transport: UDP here, the streams in
    # :class:`~repro.dns.transport.DNSServerTransport`.
    def note_query(self) -> None:
        self.queries_received += 1
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("ns.queries_received").inc()

    def note_response(self, response: DNSMessage) -> None:
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("ns.responses_sent", truncated=response.truncated).inc()

    def handle_datagram(self, datagram: UDPDatagram) -> None:
        if datagram.dst_port != DNS_PORT:
            return
        try:
            query = DNSMessage.decode(datagram.payload)
        except WireFormatError:
            note_malformed(self.network.simulator.obs, "nameserver")
            return
        if query.is_response:
            return
        self.note_query()
        obs = self.network.simulator.obs
        response = self.answer_query(query)
        if (self.udp_payload_limit is not None
                and response.wire_size > self.udp_payload_limit):
            # The answer does not fit the UDP budget: send a truncated stub
            # (TC=1, empty sections) instead of an oversized datagram.  This
            # is what keeps the fragmentation-attack size knobs meaningful —
            # a server with a payload limit never emits the fragmenting
            # response the splice needs.
            oversized = response.wire_size
            response = replace(response, answers=(), authority=(), truncated=True)
            if obs.enabled:
                obs.metrics.counter("ns.responses_truncated").inc()
                obs.trace.instant("ns.truncated", category="dns",
                                  qname=normalise_name(query.question.name),
                                  txid=query.transaction_id,
                                  server=self.address,
                                  wire_size=oversized)
        if self.rate_limiter is not None:
            # RRL applies to UDP answers only — a stream response already
            # proved the client's address with a handshake, and the TC=1
            # slip below is precisely the nudge toward that stream.
            verdict = self.rate_limiter.check(
                datagram.src_ip, self.network.simulator.now)
            if verdict != "send":
                if obs.enabled:
                    obs.metrics.counter("ns.rrl", verdict=verdict).inc()
                if verdict == "drop":
                    return
                response = replace(response, answers=(), authority=(),
                                   truncated=True)
        self.note_response(response)
        self.send_udp(datagram.src_ip, DNS_PORT, datagram.src_port, response.encode())


class PoolNTPNameserver(AuthoritativeNameserver):
    """Authoritative server for ``pool.ntp.org`` with rotation.

    Each query is answered with ``records_per_response`` servers chosen
    uniformly at random (without replacement within a response) from the
    volunteer pool, mimicking the real zone's GeoDNS rotation.  Selection
    uses the simulator RNG so pool-generation experiments are reproducible.
    """

    def __init__(self, network: Network, address: str, zone_name: str,
                 pool_servers: Sequence[str],
                 records_per_response: int = POOL_RECORDS_PER_RESPONSE,
                 ttl: int = POOL_NTP_ORG_TTL,
                 name: Optional[str] = None,
                 min_supported_mtu: int = 1500,
                 udp_payload_limit: Optional[int] = None) -> None:
        zone = {zone_name: list(pool_servers)}
        super().__init__(network, address, zone=zone, ttl=ttl,
                         name=name or f"pool-ns-{address}",
                         udp_payload_limit=udp_payload_limit)
        self.zone_name = normalise_name(zone_name)
        self.pool_servers = list(pool_servers)
        self.records_per_response = records_per_response
        #: Smallest MTU this nameserver is willing to fragment responses to,
        #: mirroring the per-nameserver measurement in the paper ([3] found
        #: 16/30 fragmenting down to 548 bytes).
        self.min_supported_mtu = min_supported_mtu

    def matches_zone(self, owner: str) -> bool:
        """Accept the zone apex and the numbered sub-pools (0..3.pool.ntp.org)."""
        owner = normalise_name(owner)
        return owner == self.zone_name or owner.endswith("." + self.zone_name)

    def select_addresses(self, owner: str) -> list[str]:
        if not self.matches_zone(owner):
            return []
        count = min(self.records_per_response, len(self.pool_servers))
        return self.network.simulator.rng.sample(self.pool_servers, count)
