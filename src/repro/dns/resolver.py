"""Recursive resolver and stub-resolver components.

The recursive resolver is the victim of the cache-poisoning attack.  Its
defense stack (a :class:`~repro.defenses.stack.DefenseStack`) is its only
configuration: the classic off-path defences — random transaction id,
random source port, and source-address/question matching on responses —
open every stack, and experiments append hardening defenses (fragment
rejection, DNS-0x20, cookies, signing validation, vantage cross-checks) and
the resilience switches (``serve_stale``, ``upstream_retries``) on top.
The paper's attacker goes *around* the classic set: the spoofed content
arrives in the second IPv4 fragment while all the validated fields live in
the genuine first fragment sent by the real nameserver (fragmentation
vector), or the attacker simply receives the query itself after a BGP
hijack.

The resolver is also deliberately *shared*: the paper notes that resolvers
are typically shared by many systems, which lets the attacker trigger the DNS
query and run the poisoning race via a third-party protocol (SMTP, open
resolvers) independent of the Chronos client's own schedule.

Upstream queries travel over plaintext UDP unless a
:class:`~repro.dns.transport.ResolverUpstreamTransport` is attached (by the
``encrypted_transport`` defense, or lazily for the RFC 7766 retry of a
TC-truncated response) — truncated responses are never cached and never
answer a query on their own.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..defenses.base import QueryContext, ResponseContext
from ..defenses.classic import RandomSourcePort, RandomTransactionID, ResponseMatching
from ..defenses.resilience import ServeStale, UpstreamRetries
from ..defenses.stack import DefenseStack
from ..netsim.network import Host, Network
from ..netsim.packets import UDPDatagram
from .cache import DNSCache
from .message import DNSMessage, ResponseCode
from .nameserver import DNS_PORT
from .records import RecordType
from .wire import WireFormatError, normalise_name, note_malformed

if TYPE_CHECKING:
    from .transport import PooledConnection

#: Callback invoked with the answer addresses (possibly empty on failure).
LookupCallback = Callable[[list[str]], None]

#: TTL stamped on answers served from expired (stale) cache entries, per
#: RFC 8767 §4's recommendation that stale data be served with a TTL low
#: enough that clients re-ask soon.
STALE_ANSWER_TTL = 30
#: Seconds the resolver waits for an upstream answer before it retries or
#: answers its client SERVFAIL.
QUERY_TIMEOUT = 5.0
#: Retransmissions of a timed-out UDP query under the ``upstream_retries``
#: defense (without it the resolver fails fast).
QUERY_RETRIES = 2
#: Backoff before a query's first retransmission; it doubles per retry, and
#: each wait adds uniform jitter up to ``RETRY_JITTER`` seconds drawn from
#: the simulator's RNG (deterministic per seed, decorrelated per query).
RETRY_BACKOFF = 0.25
RETRY_JITTER = 0.05
#: Seconds a :class:`DNSStub` waits for the resolver before reporting failure.
STUB_QUERY_TIMEOUT = 10.0


@dataclass
class PendingUpstreamQuery:
    """State for one query the resolver has forwarded upstream."""

    upstream_query: DNSMessage
    nameserver_address: str
    source_port: int
    client_address: Optional[str]
    client_port: Optional[int]
    client_query: Optional[DNSMessage]
    sent_at: float
    timeout_handle: object = None
    #: Retransmissions already spent on this query (at most
    #: :attr:`RecursiveResolver.query_retries`).
    attempts: int = 0
    #: The defense-stack context carrying per-query verification state.
    context: Optional[QueryContext] = None
    #: Whether a truncated UDP response already triggered the one-shot
    #: stream retry (RFC 7766 fallback) for this query.
    stream_retry: bool = False
    #: How the query most recently left the resolver: ``"udp"`` or
    #: ``"stream"``.  A query on a stream transport accepts no datagram
    #: answers — the check that keeps strict encrypted policies strict.
    sent_via: str = "udp"
    #: Times a pooled stream died with this query in flight and the
    #: transport re-sent it over a fresh connection (bounded; see
    #: :meth:`ResolverUpstreamTransport._connection_gone`).
    pool_redispatches: int = 0
    #: The stream the query was last sent on, if any (see
    #: :meth:`~repro.dns.transport.PooledConnection.abandon`).
    stream: Optional[PooledConnection] = None


class RecursiveResolver(Host):
    """A caching recursive resolver configured by its defense stack alone.

    The stack is ``random_txid``, ``random_source_port`` and
    ``response_matching``, then the given ``defenses``, in order: seeded RNG
    streams and matching-before-capping depend on it.  A ``serve_stale`` or
    ``upstream_retries`` defense in it turns on RFC 8767 stale answers or
    :data:`QUERY_RETRIES` retransmissions, however the resolver was built.
    """

    def __init__(self, network: Network, address: str,
                 nameserver_map: dict[str, str],
                 defenses: Optional[DefenseStack] = None) -> None:
        super().__init__(network, address, name=f"resolver-{address}")
        #: Observability facade, cached off the simulator (response handling
        #: is the hottest application-layer path in a poisoning sweep).
        self._obs = network.simulator.obs
        #: zone suffix (normalised) -> authoritative nameserver address
        self.nameserver_map = {normalise_name(zone): ns for zone, ns in nameserver_map.items()}
        self.defenses = DefenseStack([RandomTransactionID(), RandomSourcePort(),
                                      ResponseMatching(), *(defenses or ())])
        self.cache = DNSCache(serve_stale=self.defenses.has(ServeStale))
        #: Retransmissions of a timed-out UDP query (0 = fail fast).
        self.query_retries = QUERY_RETRIES if self.defenses.has(UpstreamRetries) else 0
        self._pending: dict[tuple[int, str], PendingUpstreamQuery] = {}
        #: Stream/encrypted upstream transport manager; ``None`` until the
        #: first truncated response (lazy plain-TCP fallback) or until the
        #: ``encrypted_transport`` defense attaches a policy-bearing one.
        self.upstream_transport = None
        # Counters a result or the benchmark reads; every other event is
        # counted in ``repro.obs`` only.
        self.queries_answered_from_cache = 0
        self.queries_forwarded = 0
        self.responses_rejected = 0

    # -- helpers ---------------------------------------------------------------
    def nameserver_for(self, qname: str) -> Optional[str]:
        """Longest-suffix match of ``qname`` against the nameserver map."""
        qname = normalise_name(qname)
        best: Optional[str] = None
        best_len = -1
        for zone, ns_address in self.nameserver_map.items():
            if (qname == zone or qname.endswith("." + zone)) and len(zone) > best_len:
                best, best_len = ns_address, len(zone)
        return best

    def _allocate_txid(self) -> int:
        """Transaction id for a synthetic client query (see trigger_lookup).

        Upstream queries get their id from the defense stack; this draws the
        synthetic query's id from the same RNG, keeping the RNG stream
        identical to the pre-stack resolver.
        """
        return self.network.simulator.rng.randrange(0, 0x10000)

    def use_upstream_transport(self, transport) -> None:
        """Attach a :class:`~repro.dns.transport.ResolverUpstreamTransport`.

        Called by the ``encrypted_transport`` defense's ``attach_testbed``
        hook; with no attached transport the resolver behaves exactly as the
        datagram-only resolver it always was.
        """
        self.upstream_transport = transport

    def _stream_transport(self):
        """The upstream transport, created lazily for the TC-bit retry."""
        if self.upstream_transport is None:
            from .transport import ResolverUpstreamTransport

            self.upstream_transport = ResolverUpstreamTransport(self)
        return self.upstream_transport

    def _record_rejection(self, key: tuple[int, str], defense: str, reason: str,
                          poisoned: bool = False, spoofed: bool = False) -> None:
        """Tag a rejected candidate with the defense verdict (obs enabled)."""
        self._obs.metrics.counter("dns.responses_rejected", defense=defense).inc()
        self._obs.trace.instant("dns.response.rejected", category="dns",
                                qname=key[1], txid=key[0], defense=defense,
                                reason=reason, poisoned=poisoned, spoofed=spoofed)

    # -- datagram dispatch --------------------------------------------------------
    def handle_datagram(self, datagram: UDPDatagram) -> None:
        try:
            message = DNSMessage.decode(datagram.payload)
        except WireFormatError:
            note_malformed(self._obs, "resolver")
            return
        if message.is_response:
            self._handle_upstream_response(datagram, message)
        elif datagram.dst_port == DNS_PORT:
            self._handle_client_query(datagram, message)

    # -- client side -------------------------------------------------------------
    def _handle_client_query(self, datagram: UDPDatagram, query: DNSMessage) -> None:
        cached = self.cache.lookup(query.question.name, query.question.qtype,
                                   self.network.simulator.now)
        if cached is not None:
            self.queries_answered_from_cache += 1
            if self._obs.enabled:
                self._obs.metrics.counter("dns.cache_hits").inc()
            # One TTL per RRset (RFC 2181 §5.2): the entry's, read once.
            ttl = cached.remaining_ttl(self.network.simulator.now)
            self.send_udp(datagram.src_ip, DNS_PORT, datagram.src_port,
                          query.encode_cached_answer(cached, ttl))
            return
        if self.cache.serve_stale:
            stale = self.cache.lookup_stale(query.question.name, query.question.qtype,
                                            self.network.simulator.now)
            if stale is not None:
                # RFC 8767: answer now from the expired entry (clamped TTL),
                # refresh in the background.  The poisoning tension is
                # deliberate — a stale *poisoned* entry is prolonged too.
                if self._obs.enabled:
                    self._obs.metrics.counter("dns.stale_answers",
                                              poisoned=stale.poisoned).inc()
                    self._obs.trace.instant("dns.cache.stale_answer", category="dns",
                                            qname=query.question.name,
                                            poisoned=stale.poisoned)
                self.send_udp(datagram.src_ip, DNS_PORT, datagram.src_port,
                              query.encode_cached_answer(stale, STALE_ANSWER_TTL))
                self._refresh_if_idle(query.question.name, query.question.qtype)
                return
        self._forward_upstream(query, datagram.src_ip, datagram.src_port)

    def _refresh_if_idle(self, name: str, qtype: RecordType) -> None:
        """Start a background refresh unless one is already in flight."""
        qname = normalise_name(name)
        if any(pending_name == qname for _, pending_name in self._pending):
            return
        synthetic = DNSMessage.query(self._allocate_txid(), name, qtype)
        self._forward_upstream(synthetic, None, None)

    def _reply_to_client(self, client_address: str, client_port: int, response: DNSMessage) -> None:
        self.send_udp(client_address, DNS_PORT, client_port, response.encode())

    # -- upstream side -------------------------------------------------------------
    def _forward_upstream(self, client_query: DNSMessage, client_address: Optional[str],
                          client_port: Optional[int]) -> None:
        nameserver = self.nameserver_for(client_query.question.name)
        if nameserver is None:
            if client_address is not None:
                response = client_query.make_response([], rcode=ResponseCode.SERVFAIL)
                self._reply_to_client(client_address, client_port, response)
            return
        # Placeholders: the stack's hardening hooks (random txid/port, 0x20
        # case, cookies) rewrite them.
        question = client_query.question
        context = QueryContext(
            question=question,
            transaction_id=0,
            source_port=0,
            nameserver_address=nameserver,
            rng=self.network.simulator.rng,
        )
        self.defenses.on_outgoing_query(context)
        context.query = DNSMessage.query(context.transaction_id, question.name,
                                         question.qtype, cookie=context.cookie,
                                         case_nonce=context.case_nonce)
        pending = PendingUpstreamQuery(
            upstream_query=context.query,
            nameserver_address=nameserver,
            source_port=context.source_port,
            client_address=client_address,
            client_port=client_port,
            client_query=client_query,
            sent_at=self.network.simulator.now,
            context=context,
        )
        key = (context.transaction_id, normalise_name(client_query.question.name))
        self._pending[key] = pending
        pending.timeout_handle = self.network.simulator.schedule(
            QUERY_TIMEOUT, lambda k=key: self._on_timeout(k))
        self.queries_forwarded += 1
        if self._obs.enabled:
            self._obs.metrics.counter("dns.queries_forwarded").inc()
            self._obs.trace.instant("dns.query.sent", category="dns",
                                    qname=key[1], txid=key[0],
                                    nameserver=nameserver,
                                    port=context.source_port)
        if self.upstream_transport is not None:
            self.upstream_transport.dispatch(key, pending)
        else:
            self._send_upstream_datagram(pending)

    def _send_upstream_datagram(self, pending: PendingUpstreamQuery) -> None:
        """The classic plaintext-UDP upstream query (the attack surface)."""
        pending.sent_via = "udp"
        self.send_udp(pending.nameserver_address, pending.source_port, DNS_PORT,
                      pending.upstream_query.encode())

    def _on_timeout(self, key: tuple[int, str]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        if self._obs.enabled:
            self._obs.metrics.counter("dns.query_timeouts").inc()
            self._obs.trace.instant("dns.query.timeout", category="dns",
                                    qname=key[1], txid=key[0])
        if pending.attempts < self.query_retries and pending.sent_via == "udp":
            # Exponential backoff with deterministic jitter, then re-send the
            # *same* query (same txid, same source port): the pending entry
            # stays keyed so a slow genuine answer arriving during the
            # backoff still resolves the query.
            pending.attempts += 1
            delay = (RETRY_BACKOFF * 2.0 ** (pending.attempts - 1)
                     + self.network.simulator.rng.uniform(0, RETRY_JITTER))
            if self._obs.enabled:
                self._obs.metrics.counter("dns.query_retries").inc()
                self._obs.trace.instant("dns.query.retry", category="dns",
                                        qname=key[1], txid=key[0],
                                        attempt=pending.attempts, backoff=delay)
            pending.timeout_handle = self.network.simulator.schedule(
                delay, lambda k=key: self._retransmit(k))
            return
        del self._pending[key]
        if pending.sent_via == "stream":
            pending.stream.abandon(key)
        if pending.client_address is not None and pending.client_query is not None:
            response = pending.client_query.make_response([], rcode=ResponseCode.SERVFAIL)
            self._reply_to_client(pending.client_address, pending.client_port, response)

    def _retransmit(self, key: tuple[int, str]) -> None:
        pending = self._pending.get(key)
        if pending is None:  # answered during the backoff
            return
        pending.timeout_handle = self.network.simulator.schedule(
            QUERY_TIMEOUT, lambda k=key: self._on_timeout(k))
        self._send_upstream_datagram(pending)

    def _handle_upstream_response(self, datagram: UDPDatagram, response: DNSMessage,
                                  via: str = "udp") -> None:
        obs = self._obs
        key = (response.transaction_id, normalise_name(response.question.name))
        pending = self._pending.get(key)
        if pending is None:
            self.responses_rejected += 1
            if obs.enabled:
                obs.metrics.counter("dns.responses_unmatched").inc()
                obs.trace.instant("dns.response.unmatched", category="dns",
                                  qname=key[1], txid=key[0], src=datagram.src_ip)
            return
        if obs.enabled:
            obs.trace.instant("dns.response.candidate", category="dns",
                              qname=key[1], txid=key[0], src=datagram.src_ip,
                              via=via, poisoned=self.last_datagram_poisoned,
                              truncated=response.truncated)
        if via == "udp" and pending.sent_via == "stream":
            # The query is out on an (authenticated) stream transport: no
            # datagram can legitimately answer it.  Without this check a
            # spoofed UDP response would bypass the strict encrypted policy
            # entirely — the resolver would be DoT on the wire and
            # poisonable by datagram.
            self.responses_rejected += 1
            if obs.enabled:
                self._record_rejection(key, "transport-policy",
                                       "datagram answer to a stream query",
                                       poisoned=self.last_datagram_poisoned)
            return
        if response.truncated and via == "udp":
            # TC=1: the response is an incomplete stub, never answer data.
            # It is not cached and does not resolve the query; instead the
            # resolver re-asks once over the stream transport (RFC 7766).
            # If that retry cannot complete either, the query runs into its
            # own timeout — a truncated response alone never produces an
            # answer.  The stub must still prove the classic provenance
            # (source address + destination port) before it is honoured:
            # otherwise a blind spoofer could burn the one-shot retry — or
            # force plaintext TCP — knowing only the 16-bit transaction id.
            if (datagram.src_ip != pending.nameserver_address
                    or datagram.dst_port != pending.source_port):
                self.responses_rejected += 1
                if obs.enabled:
                    self._record_rejection(key, "classic-provenance",
                                           "truncated stub failed provenance",
                                           poisoned=self.last_datagram_poisoned,
                                           spoofed=True)
                return
            if obs.enabled:
                obs.metrics.counter("dns.responses_truncated").inc()
                obs.trace.instant("dns.response.truncated", category="dns",
                                  qname=key[1], txid=key[0],
                                  retry=not pending.stream_retry)
            if not pending.stream_retry:
                pending.stream_retry = True
                self._stream_transport().retry_over_tcp(key, pending)
            return
        context = ResponseContext(
            response=response,
            datagram=datagram,
            query=pending.context,
            poisoned=self.last_datagram_poisoned,
            answers=[record for record in response.answers
                     if record.rtype == response.question.qtype],
        )
        # First rejection wins; a rejected response leaves the query pending
        # so the genuine answer (or the timeout) still resolves it.
        verdict = self.defenses.on_incoming_response(context)
        if verdict is not None:
            self.responses_rejected += 1
            if obs.enabled:
                self._record_rejection(key, verdict[0], verdict[1],
                                       poisoned=context.poisoned)
            return
        del self._pending[key]
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        if obs.enabled:
            obs.metrics.counter("dns.responses_accepted",
                                poisoned=context.poisoned).inc()
            obs.trace.instant("dns.response.accepted", category="dns",
                              qname=key[1], txid=key[0], via=via,
                              poisoned=context.poisoned,
                              answers=len(context.answers))

        answers = context.answers
        if answers:
            self.cache.insert(response.question.name, response.question.qtype, answers,
                              self.network.simulator.now, poisoned=context.poisoned)
            if obs.enabled:
                obs.metrics.counter("dns.cache_writes",
                                    poisoned=context.poisoned).inc()
                obs.trace.instant("dns.cache.write", category="dns",
                                  qname=key[1], txid=key[0],
                                  poisoned=context.poisoned,
                                  records=len(answers))
        if pending.client_address is not None and pending.client_query is not None:
            client_response = pending.client_query.make_response(list(answers),
                                                                 rcode=response.rcode,
                                                                 authoritative=False)
            self._reply_to_client(pending.client_address, pending.client_port, client_response)

    # -- direct (attacker/trigger) entry point --------------------------------------
    def trigger_lookup(self, name: str, qtype: RecordType = RecordType.A) -> None:
        """Start an upstream lookup with no client waiting for the answer.

        This models third-party query triggering (§II): an attacker makes a
        shared resolver issue the pool.ntp.org query — e.g. via an SMTP
        server's reverse lookup or an open-resolver query — so the poisoning
        race can be run at a moment of the attacker's choosing.
        """
        synthetic = DNSMessage.query(self._allocate_txid(), name, qtype)
        self._forward_upstream(synthetic, None, None)


class DNSStub:
    """Client-side DNS component attached to a host (Chronos / NTP client).

    It sends queries to a configured recursive resolver and invokes the
    caller's callback with the list of answer addresses, or with no answer
    after ``STUB_QUERY_TIMEOUT`` seconds.  The owning host must offer
    incoming datagrams via :meth:`handle_datagram`.
    """

    def __init__(self, host: Host, resolver_address: str) -> None:
        self.host = host
        self.resolver_address = resolver_address
        self._pending: dict[tuple[int, int], tuple[DNSMessage, Callable, object, bool]] = {}

    def lookup(self, name: str, callback: LookupCallback,
               qtype: RecordType = RecordType.A) -> None:
        """Resolve ``name`` asynchronously; ``callback`` gets the addresses."""
        self._send_query(name, callback, qtype, wants_message=False)

    def lookup_message(self, name: str, callback: Callable[[Optional[DNSMessage]], None],
                       qtype: RecordType = RecordType.A) -> None:
        """Resolve ``name``; ``callback`` gets the full response message.

        The Chronos client uses this variant so it can see record TTLs — the
        §V mitigation of discarding high-TTL responses needs them.
        """
        self._send_query(name, callback, qtype, wants_message=True)

    def _send_query(self, name: str, callback: Callable, qtype: RecordType,
                    wants_message: bool) -> None:
        rng = self.host.network.simulator.rng
        txid = rng.randrange(0, 0x10000)
        port = rng.randrange(20000, 60000)
        query = DNSMessage.query(txid, name, qtype)
        handle = self.host.network.simulator.schedule(
            STUB_QUERY_TIMEOUT, lambda key=(txid, port): self._on_timeout(key))
        self._pending[(txid, port)] = (query, callback, handle, wants_message)
        self.host.send_udp(self.resolver_address, port, DNS_PORT, query.encode())

    def _on_timeout(self, key: tuple[int, int]) -> None:
        entry = self._pending.pop(key, None)
        if entry is None:
            return
        _, callback, _, wants_message = entry
        callback(None if wants_message else [])

    def handle_datagram(self, datagram: UDPDatagram) -> bool:
        """Offer an incoming datagram; returns True when it was a DNS answer."""
        if datagram.src_port != DNS_PORT:
            return False
        try:
            response = DNSMessage.decode(datagram.payload)
        except WireFormatError:
            note_malformed(self.host.network.simulator.obs, "stub")
            return False
        if not response.is_response:
            return False
        key = (response.transaction_id, datagram.dst_port)
        entry = self._pending.pop(key, None)
        if entry is None:
            return True
        query, callback, handle, wants_message = entry
        if handle is not None:
            handle.cancel()
        if not response.matches_query(query):
            callback(None if wants_message else [])
            return True
        callback(response if wants_message else response.answer_addresses)
        return True
