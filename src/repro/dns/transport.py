"""Encrypted and stream DNS transports: DNS-over-TCP, DoT and DoH.

The paper positions encrypted transports as the countermeasure *class* that
removes both off-path poisoning vectors — a blind spoofer cannot inject into
a sequence-checked stream, and a hijacker who diverts the packets cannot
complete a TLS handshake for an identity it holds no certificate for — at
the cost of a changed trust model.  This module provides both halves:

* **server side** — :class:`DNSServerTransport` attaches stream listeners to
  an :class:`~repro.dns.nameserver.AuthoritativeNameserver`: plain
  DNS-over-TCP on 53 (RFC 7766, the TC-bit fallback target), DoT on 853
  (RFC 7858) and DoH on 443 (RFC 8484, modelled as ``POST /dns-query`` over
  the secure channel).  Stream responses are never truncated — that is the
  entire point of the TC bit.
* **resolver side** — :class:`ResolverUpstreamTransport` manages how a
  recursive resolver reaches its upstream nameservers: plain UDP (the
  default, and the paper's attack surface), a plain-TCP retry when a UDP
  response comes back truncated, or an :class:`EncryptedTransportPolicy`
  that routes queries over DoT/DoH — *strict* (never fall back; resolution
  fails rather than degrade) or *opportunistic* (fall back to plaintext UDP
  when the encrypted transport fails, remembering the failure for
  :data:`DOWNGRADE_HOLDDOWN` seconds).  Opportunistic mode is deliberately
  exploitable: an attacker who can make the encrypted connection fail — a
  spoofed-source SYN flood on the nameserver's listeners, or a hijack that
  blackholes port 853 — pushes the resolver back onto UDP and then runs
  the classic poisoning race.  See :mod:`repro.attacks.downgrade`.

Framing is the real wire format: stream DNS messages carry the RFC 1035
two-byte length prefix (split by :class:`~repro.netsim.transport.FrameDecoder`,
which splits secure-channel records too); DoH wraps the same wire bytes in a
minimal HTTP/1.1 exchange.  Both ends receive through :func:`stream_messages`.

Every upstream stream — DoT, DoH and the TC retry's plain TCP — is a
:class:`PooledConnection` opened by one method,
:meth:`ResolverUpstreamTransport._open_stream`.  The connection owns
framing, demultiplexing by message ID + question name, the failure path,
its lifetime trace span, and the ``connections_opened`` count.  It lives
one of two lifecycles:

* **single use** — the TC retry, and any encrypted policy that neither
  reuses connections nor resumes.  The stream closes after its first
  answer, so every query pays the handshake that
  ``benchmarks/bench_encrypted_transport.py`` measures against the UDP
  baseline.  A failed DoT/DoH stream goes straight to the policy's
  strict-or-downgrade decision; a failed TC retry leaves the query to the
  resolver's timeout.
* **pooled** — the high-QPS serving layer, opted into with
  :class:`EncryptedTransportPolicy` knobs.  ``reuse_connections`` keeps a
  per-(nameserver, protocol) pool of live streams with RFC 7766 §6.2
  out-of-order pipelining, so many queries share one handshake and answers
  may return in any order.  An idle timeout closes quiet streams; a
  mid-pipeline reset re-dispatches the orphaned queries over a fresh
  connection (bounded retries), which is what keeps fault-plan runs
  honest.  ``zero_rtt`` adds QUIC-flavoured session resumption: the first
  handshake yields a ticket, and later connections put the resumption
  hello *and* the encrypted query on the SYN itself (TFO-style).  That
  collapses DoT's extra round trips to UDP parity on warm paths, at the
  faithful cost that 0-RTT early data is replayable: the server never
  burns a ticket.

``benchmarks/bench_serving_throughput.py`` measures per-query, pooled and
0-RTT streams side by side.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..netsim.packets import UDPDatagram
from ..netsim.transport import (
    Connection,
    FrameDecoder,
    PlainStreamSocket,
    ResumptionTicketStore,
    SecureChannel,
    SessionTicket,
    StreamSocket,
)
from .message import DNSMessage
from .nameserver import DEFAULT_ZONE, DNS_PORT, AuthoritativeNameserver
from .wire import WireFormatError, normalise_name, note_malformed

if TYPE_CHECKING:
    from .resolver import PendingUpstreamQuery, RecursiveResolver

#: RFC 7858: DNS-over-TLS port.
DOT_PORT = 853
#: RFC 8484: DNS-over-HTTPS port.
DOH_PORT = 443

#: Stream transport name -> the nameserver port it listens on.
STREAM_PORTS = {"tcp": DNS_PORT, "dot": DOT_PORT, "doh": DOH_PORT}
#: Transport names accepted by :class:`DNSServerTransport` and the testbed.
STREAM_TRANSPORTS = tuple(STREAM_PORTS)

#: Seconds before an unanswered DoT/DoH connection attempt fails.  Kept well
#: under the resolver's query timeout so an opportunistic fallback still
#: answers the original query in time.
ENCRYPTED_CONNECT_TIMEOUT = 1.0
#: Seconds an opportunistic resolver speaks plaintext to a nameserver whose
#: encrypted transport failed.
DOWNGRADE_HOLDDOWN = 600.0


def frame_dns(wire: bytes) -> bytes:
    """Prefix a DNS message with the RFC 1035 two-byte length."""
    return len(wire).to_bytes(2, "big") + wire


class DNSFrameDecoder(FrameDecoder):
    """Reassembles RFC 1035 length-prefixed DNS messages from stream chunks."""

    def __init__(self) -> None:
        super().__init__(prefix=0)

    # Bound in this class body so that a per-class method wrapper (the
    # perfbench layer table times ``DNSFrameDecoder.feed``) finds it here.
    feed = FrameDecoder.feed


def _dns_http(start_line: str, wire: bytes) -> bytes:
    header = (f"{start_line}\r\n"
              f"content-type: application/dns-message\r\n"
              f"content-length: {len(wire)}\r\n\r\n")
    return header.encode("ascii") + wire


def doh_request(wire: bytes) -> bytes:
    """A minimal RFC 8484 POST carrying one DNS message."""
    return _dns_http("POST /dns-query HTTP/1.1", wire)


def doh_response(wire: bytes) -> bytes:
    return _dns_http("HTTP/1.1 200 OK", wire)


class DoHMessageDecoder:
    """Extracts DNS message bodies from a stream of HTTP/1.1 messages.

    :meth:`feed` raises :class:`~repro.dns.wire.WireFormatError` when a
    header's ``content-length`` is not a decimal integer in 0..65535 (the
    largest DNS message): the framing is lost, so the stream must be closed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer += data
        messages: list[bytes] = []
        while True:
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(self._buffer[:head_end]).decode("ascii", errors="replace")
            length = 0
            for line in head.split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    if not value.isdigit() or len(value) > 5 or int(value) > 0xFFFF:
                        raise WireFormatError(f"bad DoH content-length {value[:16]!r}")
                    length = int(value)
            body_start = head_end + 4
            if len(self._buffer) < body_start + length:
                break
            messages.append(bytes(self._buffer[body_start:body_start + length]))
            del self._buffer[:body_start + length]
        return messages


def stream_decoder(protocol: str) -> DNSFrameDecoder | DoHMessageDecoder:
    """A fresh DNS message decoder for one ``tcp``/``dot``/``doh`` stream."""
    return DoHMessageDecoder() if protocol == "doh" else DNSFrameDecoder()


def stream_messages(decoder: DNSFrameDecoder | DoHMessageDecoder, data: bytes, obs,
                    site: str, close: Callable[[], None]) -> Iterator[tuple[DNSMessage, bytes]]:
    """The one DNS-over-stream receive loop: feed ``data`` to the decoder and
    yield each decoded ``(message, wire)``.

    A bad DoH header loses the framing: it counts
    ``dns.malformed{site=doh_header}``, calls ``close`` and yields nothing.
    The close removes the flow at once, so each later segment the peer had
    already sent is a packet for a flow that is gone and counts
    ``tcp.dropped{reason=no_flow}``: one count per packet, each truthful.
    An undecodable frame counts ``dns.malformed{site=<site>}`` and is skipped.
    """
    try:
        wires = decoder.feed(data)
    except WireFormatError:
        note_malformed(obs, "doh_header")
        close()
        return
    for wire in wires:
        try:
            message = DNSMessage.decode(wire)
        except WireFormatError:  # noqa: PERF203 — per-frame garbage tolerance
            note_malformed(obs, site)
            continue
        yield message, wire


# -- server side ---------------------------------------------------------------


class DNSServerTransport:
    """Stream listeners (TCP 53 / DoT 853 / DoH 443) for a nameserver.

    Each accepted connection gets its own framing decoder; every decoded
    query is answered through the nameserver's ``answer_query`` — the same
    logic as UDP, so cookies, 0x20 case patterns and signatures are echoed
    identically — and stream responses are never truncated.  The secure
    listeners present the zone's identity, signed with :attr:`cert_key`, a
    function of the simulator seed; a resolver pins it as its trust anchor.
    """

    identity = DEFAULT_ZONE

    def __init__(self, nameserver: AuthoritativeNameserver) -> None:
        self.nameserver = nameserver
        self.cert_key = f"tls|{DEFAULT_ZONE}|{nameserver.network.simulator.seed}"
        #: Session cache for 0-RTT resumption, made by the first
        #: ``listen(..., session_resumption=True)``; ``None`` keeps the
        #: handshake path (and its RNG draws) free of tickets.
        self.ticket_store: Optional[ResumptionTicketStore] = None
        nameserver.stream_transport = self

    @classmethod
    def of(cls, nameserver: AuthoritativeNameserver) -> DNSServerTransport:
        """The nameserver's stream transport, attached on first use."""
        return nameserver.stream_transport or cls(nameserver)

    def listen(self, labels: tuple[str, ...], session_resumption: bool = False) -> None:
        """Serve each of ``labels`` ("tcp", "dot", "doh"), opening a port at
        most once however often it is asked for.  ``session_resumption``
        issues tickets and accepts 0-RTT first flights on every secure port.
        Neither draws a random number nor schedules an event."""
        unknown = set(labels) - set(STREAM_TRANSPORTS)
        if unknown:
            raise ValueError(f"unknown stream transport(s): {sorted(unknown)}; "
                             f"supported: {STREAM_TRANSPORTS}")
        if session_resumption and self.ticket_store is None:
            self.ticket_store = ResumptionTicketStore()
        tcp = self.nameserver.tcp
        for label in labels:
            if STREAM_PORTS[label] not in tcp.listeners:
                tcp.listen(STREAM_PORTS[label],
                           lambda conn, label=label: self._serve(conn, label))
        for port in (DOT_PORT, DOH_PORT):
            if port in tcp.listeners:
                tcp.listeners[port].fast_open = self.ticket_store is not None

    def _serve(self, connection: Connection, label: str) -> None:
        """Answer DNS queries on one accepted ``label`` connection."""
        if label == "tcp":
            socket: StreamSocket = PlainStreamSocket(connection)
        else:
            socket = SecureChannel.server(
                connection, self.nameserver.network.simulator.rng,
                identity=self.identity, cert_key=self.cert_key,
                ticket_store=self.ticket_store)
        decoder = stream_decoder(label)
        frame = doh_response if label == "doh" else frame_dns

        def on_data(data: bytes) -> None:
            nameserver = self.nameserver
            for query, _ in stream_messages(decoder, data, nameserver.network.simulator.obs,
                                            "server_stream", socket.close):
                if query.is_response:
                    continue
                nameserver.note_query()
                response = nameserver.answer_query(query)
                nameserver.note_response(response)
                socket.send(frame(response.encode()))

        socket.on_data = on_data


# -- resolver side -------------------------------------------------------------
@dataclass(frozen=True)
class EncryptedTransportPolicy:
    """How a resolver uses encrypted upstream transports.

    ``strict`` resolvers never speak plaintext: when the encrypted transport
    fails, the query fails (and the off-path attacker gets nothing).
    Opportunistic resolvers prefer encryption but fall back to plaintext UDP
    on failure, remembering the failed nameserver for
    :data:`DOWNGRADE_HOLDDOWN` seconds — the RFC 7435 trade-off whose
    downgrade-ability :mod:`repro.attacks.downgrade` makes measurable.
    Every connection attempt fails after :data:`ENCRYPTED_CONNECT_TIMEOUT`.

    This is the only declaration of the knobs: the ``encrypted_transport``
    defenses take them as keywords and hold one policy.
    """

    protocol: str = "dot"
    strict: bool = True
    #: RFC 7766 §6.2 — keep upstream streams open and pipeline queries
    #: instead of paying the handshake per query.
    reuse_connections: bool = False
    #: Seconds a pooled stream may sit with nothing in flight.
    idle_timeout: float = 30.0
    #: Resume with a session ticket and send the query as 0-RTT early data
    #: on the SYN (implies pooling; the nameserver must enable resumption).
    zero_rtt: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in ("dot", "doh"):
            raise ValueError(f"unknown encrypted protocol {self.protocol!r}")

    @property
    def port(self) -> int:
        return DOT_PORT if self.protocol == "dot" else DOH_PORT

    @property
    def pooled(self) -> bool:
        """Whether queries route through the connection pool."""
        return self.reuse_connections or self.zero_rtt


class PooledConnection:
    """One upstream stream: framing, demultiplexing, lifetime, failure.

    RFC 7766 §6.2: multiple queries may be in flight on one connection and
    the server may answer them in any order, so responses are matched back
    to their query by message ID + question name rather than by arrival
    order.  A stream has one of two lifecycles:

    * **pooled** (``idle_timeout`` in seconds) — reused by later queries,
      closed after ``idle_timeout`` seconds with nothing in flight; a reset,
      failure or peer close hands the in-flight queries back to the
      transport for re-dispatch over a fresh connection.
    * **single use** (``idle_timeout=None``) — closed as soon as its one
      query is answered, before the answer is delivered, or once the
      resolver times that query out.  A failure is
      reported to the transport but never re-dispatched; a peer close
      leaves the query to the resolver's timeout.
    """

    def __init__(self, transport: ResolverUpstreamTransport, address: str,
                 protocol: str, socket: StreamSocket,
                 idle_timeout: Optional[float]) -> None:
        self.transport = transport
        self.address = address
        self.protocol = protocol
        self.socket = socket
        self.idle_timeout = idle_timeout
        self.decoder = stream_decoder(protocol)
        #: (transaction id, qname) -> pending query awaiting its response.
        self.in_flight: dict[tuple[int, str], PendingUpstreamQuery] = {}
        self._send_queue: list[bytes] = []
        self.closed = False
        #: True when this connection was opened via 0-RTT resumption.
        self.resumed = False
        self.opened_at = transport._simulator.now
        self.queries_sent = 0
        self.max_in_flight = 0
        self._idle_deadline: Optional[float] = None
        socket.on_ready = self._flush
        socket.on_data = self._on_data
        socket.on_close = self._peer_closed
        socket.on_failure = self._lost

    @property
    def single_use(self) -> bool:
        return self.idle_timeout is None

    # -- sending ---------------------------------------------------------------
    def request(self, pending: PendingUpstreamQuery) -> bytes:
        """The framed wire bytes that carry ``pending`` on this stream."""
        wire = pending.upstream_query.encode()
        return doh_request(wire) if self.protocol == "doh" else frame_dns(wire)

    def adopt(self, key: tuple[int, str], pending: PendingUpstreamQuery) -> None:
        """Track a query whose bytes already left (the 0-RTT first flight)."""
        self._idle_deadline = None
        self.in_flight[key] = pending
        pending.stream = self
        self.queries_sent += 1
        self.max_in_flight = max(self.max_in_flight, len(self.in_flight))

    def send_query(self, key: tuple[int, str],
                   pending: PendingUpstreamQuery) -> None:
        self.adopt(key, pending)
        request = self.request(pending)
        if self.socket.ready:
            self.socket.send(request)
        else:
            self._send_queue.append(request)

    def _flush(self) -> None:
        queued, self._send_queue = self._send_queue, []
        for request in queued:
            self.socket.send(request)

    # -- receiving -------------------------------------------------------------
    def _on_data(self, data: bytes) -> None:
        for response, wire in stream_messages(
                self.decoder, data, self.transport._simulator.obs, "upstream_pool",
                lambda: self.close("malformed DoH header")):
            key = (response.transaction_id,
                   normalise_name(response.question.name))
            pending = self.in_flight.pop(key, None)
            if pending is None:
                continue  # not ours (stale or duplicate) — keep the stream
            if self.single_use:
                self.close("answered")
                self.transport._deliver(pending, response, wire)
                return
            if not self.in_flight:
                self._arm_idle_timer()
            self.transport._deliver(pending, response, wire)

    # -- lifecycle ---------------------------------------------------------------
    def _arm_idle_timer(self) -> None:
        deadline = self.transport._simulator.now + self.idle_timeout
        self._idle_deadline = deadline
        self.transport._simulator.schedule(self.idle_timeout, self._check_idle)

    def _check_idle(self) -> None:
        # A query dispatched since the timer was armed disarms the deadline;
        # the timer for *its* quiet period is armed when it completes.
        if self.closed or self.in_flight or self._idle_deadline is None:
            return
        if self.transport._simulator.now >= self._idle_deadline:
            self.close("idle timeout")

    def abandon(self, key: tuple[int, str]) -> None:
        """Forget a query the resolver has timed out.  Once nothing is in
        flight, a single-use stream closes and a pooled one starts its idle
        timer."""
        if self.in_flight.pop(key, None) is None or self.in_flight:
            return
        if self.single_use:
            self.close("abandoned")
        else:
            self._arm_idle_timer()

    def close(self, reason: str = "closed") -> None:
        if self.closed:
            return
        self.closed = True
        self.transport._connection_gone(self, reason, failed=False)
        self.socket.close()

    def _peer_closed(self) -> None:
        if self.single_use:
            self.close("closed by peer")
        else:
            self._lost("closed by peer")

    def _lost(self, reason: str) -> None:
        """The stream died under us — possibly with queries in flight."""
        if self.closed:
            return
        self.closed = True
        self.transport._connection_gone(self, reason, failed=True)


class ResolverUpstreamTransport:
    """Per-resolver manager for stream-based upstream queries.

    Every resolver owns one (created lazily for the TC-bit retry); the
    ``encrypted_transport`` defense attaches one with an
    :class:`EncryptedTransportPolicy` so upstream queries travel over
    DoT/DoH instead of UDP.  Every upstream stream is a
    :class:`PooledConnection` opened by :meth:`_open_stream`.
    """

    def __init__(self, resolver: RecursiveResolver,
                 policy: Optional[EncryptedTransportPolicy] = None,
                 trust_anchor: Optional[str] = None,
                 expected_identity: Optional[str] = None) -> None:
        self.resolver = resolver
        self.policy = policy
        self.trust_anchor = trust_anchor
        self.expected_identity = expected_identity
        #: nameserver address -> simulated time until which the resolver
        #: speaks plaintext to it (opportunistic downgrade hold-down).
        self._plaintext_until: dict[str, float] = {}
        #: (nameserver address, protocol) -> live pooled stream.
        self._pool: dict[tuple[str, str], PooledConnection] = {}
        #: nameserver address -> cached resumption ticket for 0-RTT opens.
        self._tickets: dict[str, SessionTicket] = {}
        # Counters a result or the benchmark reads (each also counted in
        # ``repro.obs``): encrypted streams that failed, queries an
        # opportunistic policy pushed back to plaintext UDP, and every
        # stream opened (DoT, DoH and the TC retry's plain TCP).
        self.encrypted_failures = 0
        self.downgraded_queries = 0
        self.connections_opened = 0

    # -- helpers ---------------------------------------------------------------
    @property
    def _simulator(self):
        return self.resolver.network.simulator

    def uses_encrypted(self, nameserver_address: str) -> bool:
        """Whether the next query to this nameserver goes over DoT/DoH."""
        if self.policy is None:
            return False
        if self.policy.strict:
            return True
        return self._plaintext_until.get(nameserver_address, 0.0) <= self._simulator.now

    # -- dispatch ----------------------------------------------------------------
    def dispatch(self, key: tuple[int, str], pending: PendingUpstreamQuery) -> None:
        """Send one upstream query per the policy (called by the resolver)."""
        if self.uses_encrypted(pending.nameserver_address):
            self._count("dns.encrypted_queries")
            self._send_over_policy(key, pending)
            return
        if self.policy is not None:
            # An opportunistic policy in its hold-down window: plaintext.
            self._downgrade(pending)
            return
        self.resolver._send_upstream_datagram(pending)

    def retry_over_tcp(self, key: tuple[int, str], pending: PendingUpstreamQuery) -> None:
        """Re-ask one truncated query over plain DNS-over-TCP (RFC 7766)."""
        pending.sent_via = "stream"
        self._open_stream(key, pending, "tcp")

    def _send_over_policy(self, key: tuple[int, str],
                          pending: PendingUpstreamQuery) -> None:
        """Send over DoT/DoH: a live pooled stream if any, else a new one."""
        pending.sent_via = "stream"
        policy = self.policy
        pooled = self._pool.get((pending.nameserver_address, policy.protocol))
        if pooled is None or pooled.closed:
            self._open_stream(key, pending, policy.protocol)
            return
        obs = self._simulator.obs
        if obs.enabled:
            obs.metrics.counter("dns.pool.connections_reused",
                                protocol=policy.protocol).inc()
        pooled.send_query(key, pending)
        self._note_in_flight(pooled, obs)

    def _open_stream(self, key: tuple[int, str], pending: PendingUpstreamQuery,
                     protocol: str) -> None:
        """Open one upstream stream for ``pending``: the only place the
        resolver connects.  Plain TCP (the TC retry) and non-pooling
        policies get a single-use stream; pooling policies a pooled one,
        resumed with 0-RTT early data when a ticket is cached."""
        address = pending.nameserver_address
        self.connections_opened += 1
        obs = self._simulator.obs
        if obs.enabled:
            obs.metrics.counter("dns.pool.connections_opened",
                                protocol=protocol).inc()
        stack = self.resolver.tcp
        policy = self.policy
        ticket = None
        if protocol == "tcp":
            # On failure (no TCP listener, timeout) the query stays pending
            # and the resolver's own timeout answers SERVFAIL: a truncated
            # response is never accepted, with or without a working
            # fallback path.
            socket = PlainStreamSocket(stack.connect(address, DNS_PORT))
            idle_timeout = None
        else:
            ticket = self._tickets.get(address) if policy.zero_rtt else None
            if ticket is not None:
                # 0-RTT: compose the first flight before the SYN leaves so
                # the resumption hello and the encrypted query ride the SYN.
                connection = stack.create_connection(
                    address, policy.port, timeout=ENCRYPTED_CONNECT_TIMEOUT)
            else:
                connection = stack.connect(
                    address, policy.port, timeout=ENCRYPTED_CONNECT_TIMEOUT)
            socket = SecureChannel.client(
                connection, self._simulator.rng,
                expected_identity=self.expected_identity or "",
                trust_anchor=self.trust_anchor or "",
                ticket=ticket,
                on_ticket=lambda t, address=address: self._cache_ticket(address, t))
            idle_timeout = policy.idle_timeout if policy.pooled else None
        stream = PooledConnection(self, address, protocol, socket, idle_timeout)
        if stream.single_use:
            stream.send_query(key, pending)
            return
        self._pool[(address, protocol)] = stream
        if ticket is not None:
            stream.resumed = True
            if obs.enabled:
                obs.metrics.counter("dns.pool.zero_rtt_queries",
                                    protocol=protocol).inc()
            stream.adopt(key, pending)
            connection.open(socket.first_flight(stream.request(pending)))
        else:
            stream.send_query(key, pending)
        self._note_in_flight(stream, obs)

    def _cache_ticket(self, address: str, ticket: SessionTicket) -> None:
        self._tickets[address] = ticket

    def _note_in_flight(self, pooled: PooledConnection, obs) -> None:
        if obs.enabled:
            obs.metrics.gauge("dns.pool.pipelined_in_flight",
                              nameserver=pooled.address
                              ).track_max(len(pooled.in_flight))

    # -- failure -------------------------------------------------------------------
    def _connection_gone(self, stream: PooledConnection, reason: str,
                         failed: bool) -> None:
        """A stream closed or died; decide the fate of its in-flight queries."""
        pool_key = (stream.address, stream.protocol)
        if self._pool.get(pool_key) is stream:
            del self._pool[pool_key]
        obs = self._simulator.obs
        if obs.enabled:
            obs.trace.complete("dns.pool.connection", start=stream.opened_at,
                               category="dns", nameserver=stream.address,
                               protocol=stream.protocol,
                               queries=stream.queries_sent,
                               max_in_flight=stream.max_in_flight,
                               resumed=stream.resumed, reason=reason)
        if reason == "unknown session ticket":
            # The server does not honour our ticket (it never issued it):
            # next open is a full handshake.
            self._tickets.pop(stream.address, None)
        orphans = list(stream.in_flight.items())
        stream.in_flight.clear()
        if not failed or stream.protocol == "tcp":
            return  # a failed TC retry is left to the resolver's timeout
        pending = self.resolver._pending
        for key, orphan in orphans:
            live = key in pending  # neither answered nor timed out yet
            if not stream.single_use:
                if not live:
                    continue
                if orphan.pool_redispatches < 2:
                    # Reconnect-on-reset: two fresh attempts (enough to cover
                    # a failed resumption falling back to a cold handshake)
                    # before the policy decides strict-vs-downgrade.
                    orphan.pool_redispatches += 1
                    self._count("dns.pool.reconnects")
                    self._send_over_policy(key, orphan)
                    continue
            self.encrypted_failures += 1
            self._count("dns.encrypted_failures")
            if not live or self.policy.strict:
                # Strict: fail closed.  The pending query runs into the
                # resolver's timeout and the client sees SERVFAIL —
                # resolution degrades to *unavailable*, never to
                # *unauthenticated*.
                continue
            # Opportunistic: fall back to plaintext for this query and
            # remember the failure.  This is the downgrade the attack
            # scenario exploits.
            self._plaintext_until[orphan.nameserver_address] = (
                self._simulator.now + DOWNGRADE_HOLDDOWN)
            self._downgrade(orphan)

    def _downgrade(self, pending: PendingUpstreamQuery) -> None:
        """Send ``pending`` over plaintext UDP under an opportunistic policy."""
        self.downgraded_queries += 1
        self._count("dns.downgraded_queries")
        self.resolver._send_upstream_datagram(pending)

    def _count(self, name: str) -> None:
        obs = self._simulator.obs
        if obs.enabled:
            obs.metrics.counter(name).inc()

    # -- response delivery -----------------------------------------------------------
    def _deliver(self, pending: PendingUpstreamQuery, response: DNSMessage,
                 wire: bytes) -> None:
        # The stream endpoint *is* the provenance: the connection was opened
        # to the nameserver's address and (for DoT/DoH) authenticated by the
        # pinned certificate.  The synthetic datagram presents that
        # provenance to the defense stack so response matching holds.
        datagram = UDPDatagram(
            src_ip=pending.nameserver_address,
            dst_ip=self.resolver.address,
            src_port=DNS_PORT,
            dst_port=pending.source_port,
            payload=wire,
        )
        self.resolver._handle_upstream_response(datagram, response, via="stream")
