"""Connection-oriented transports: a TCP model and a TLS-like secure channel.

Everything before this module was datagrams — which is exactly why the
paper's off-path attacks work: a single spoofed UDP response (or a spoofed
trailing fragment) is indistinguishable from the real one.  Encrypted DNS
transports (DoT/DoH) remove both vectors by moving resolution onto a
*connection*: an off-path attacker who cannot observe the 32-bit initial
sequence numbers cannot inject into the stream, and the TLS layer
authenticates the server and hides the payload even from on-path taps.

Three layers, each usable on its own:

* :class:`TCPStack` / :class:`Connection` — a TCP-like reliable byte stream
  over the existing :class:`~repro.netsim.packets.IPPacket` path: three-way
  handshake with RNG-drawn ISNs, MSS-sized segmentation (segments never
  IP-fragment), in-order reassembly, and rejection of out-of-window
  segments, which is what defeats blind injection.  Listeners keep a finite
  half-open backlog, so spoofed-source SYN floods — the one thing an
  off-path attacker *can* still do to a connection-oriented service — are
  faithfully modelled (the downgrade attack uses exactly this).
* :class:`PlainStreamSocket` — the app-facing byte-stream interface.
* :class:`SecureChannel` — a TLS 1.3-flavoured model on top: one extra
  round trip (ClientHello / ServerHello), an ephemeral Diffie-Hellman key
  exchange over a fixed 256-bit prime, a certificate whose *subject* is
  pinned to an expected identity (the DNS zone) and whose signature is a
  keyed digest in the style of :mod:`repro.defenses.hardening`'s response
  signing (the key is secret by convention — no attacker code reads it),
  and XOR-keystream record encryption, so application bytes on the wire are
  ciphertext: opaque to :data:`~repro.netsim.network.Tap` observers and to
  anything that diverts the packets.  :class:`FrameDecoder`, the one
  length-prefixed framer (DNS streams use it too), splits the records;
  dispatch stops at the first record that closes the connection.

Simplifications, stated up front: there is no retransmission (experiments
run stream transports over lossless links), no flow control, and closing is
a single FIN with immediate teardown.  Segments addressed to no matching
connection or listener are dropped silently rather than RST'd — real stacks
answer RST, but silent drop both denies off-path attackers a scan oracle
and models the BGP-hijack case, where diverted segments arrive at a host
that does not terminate TCP for the impersonated address.

Determinism: every random draw (ISNs, ephemeral ports, TLS randoms, DH
exponents) comes from the simulator-owned RNG, so connection-oriented runs
remain a pure function of the seed.

Cost: a channel draws its DH exponent when it is built, but computes its
public share only when a ClientHello or ServerHello first sends it, so a
resumed (0-RTT) channel never computes one.  The share comes from a
fixed-base table of generator powers (32 rows × 256 entries, built on the
first handshake), and records XOR their keystream as one integer.  The
shared secret comes from the same table: every share a channel makes is
``g^b``, so a module-private registry maps it back to ``b``, and the peer
computes ``(g^b)^a`` as ``g^(a·b mod (p−1))``.  That is exact for every
input, because the order of ``g`` divides ``p − 1``.  The peer pops the
entry, so an honest handshake leaves nothing behind.  A share the
simulation did not make, or whose entry is already consumed (a crafted,
replayed or hijacked hello), falls back to the variable-base ``pow``.  None
of this changes a byte on the wire.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import struct
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .packets import IPV4_HEADER_SIZE, PROTO_TCP, IPPacket, PacketError

if TYPE_CHECKING:
    from .network import Host

TCP_HEADER_SIZE = 20
#: Fallback for hosts whose path MTU would not fit a single payload byte.
MIN_MSS = 8
#: Receive window in bytes; also the acceptance window for the blind-
#: injection sequence check.
RECEIVE_WINDOW = 65535
#: Pending-connection (half-open) slots per listener.  A spoofed-source SYN
#: flood fills these; genuine SYNs arriving at a full backlog are dropped,
#: which is what makes the encrypted-transport downgrade attack possible.
DEFAULT_BACKLOG = 16
#: Seconds a half-open connection occupies a backlog slot.
SYN_TIMEOUT = 10.0
#: Default seconds before an unanswered connect attempt fails.
CONNECT_TIMEOUT = 5.0

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_ACK = 0x10

_SEQ_MOD = 1 << 32
#: Ports, seq, ack, data offset, flags and window; checksum and urgent
#: pointer are carried as zero.
_TCP_HEADER = struct.Struct(">HHIIBBH4x")


class TransportError(RuntimeError):
    """Raised when a stream transport is driven in an inconsistent way."""


@dataclass(frozen=True)
class TCPSegment:
    """A TCP segment; encodes to the real 20-byte header layout.

    The checksum field is carried as zero — integrity at the IP layer is
    already modelled by :class:`~repro.netsim.packets.UDPDatagram` for the
    attacks that need it, and nothing in the reproduction tampers with TCP
    payloads below the sequence check.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes = b""

    def encode(self) -> bytes:
        return _TCP_HEADER.pack(self.src_port, self.dst_port, self.seq % _SEQ_MOD,
                                self.ack % _SEQ_MOD, 5 << 4, self.flags & 0x3F,
                                RECEIVE_WINDOW) + self.payload

    @classmethod
    def decode(cls, data: bytes) -> TCPSegment:
        if len(data) < TCP_HEADER_SIZE:
            raise PacketError("truncated TCP header")
        src_port, dst_port, seq, ack, offset_byte, flags, _ = _TCP_HEADER.unpack_from(data)
        offset = (offset_byte >> 4) * 4
        if offset < TCP_HEADER_SIZE or offset > len(data):
            raise PacketError("invalid TCP data offset")
        return cls(src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
                   flags=flags & 0x3F, payload=data[offset:])

    @property
    def wire_size(self) -> int:
        return TCP_HEADER_SIZE + len(self.payload)


class ConnectionState(enum.Enum):
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    CLOSED = "closed"


#: (remote_ip, remote_port, local_port) — how a stack demultiplexes segments.
ConnectionKey = tuple[str, int, int]


class Connection:
    """One endpoint of a TCP-like connection.

    Created by :meth:`TCPStack.connect` (client side, ``SYN_SENT``) or by a
    :class:`Listener` answering a SYN (server side, ``SYN_RECEIVED``).
    Callbacks — ``on_established``, ``on_data``, ``on_close``,
    ``on_failure`` — are plain attributes; :class:`PlainStreamSocket` and
    :class:`SecureChannel` wire them up.
    """

    def __init__(self, stack: TCPStack, local_port: int, remote_ip: str,
                 remote_port: int, isn: int, state: ConnectionState) -> None:
        self.stack = stack
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = state
        #: Our initial sequence number; the secret a blind injector has to
        #: guess (matching real TCP's off-path protection).
        self.iss = isn
        self.snd_nxt = (isn + 1) % _SEQ_MOD
        #: Next in-order sequence number we expect from the peer.
        self.rcv_nxt: Optional[int] = None
        self._out_of_order: dict[int, bytes] = {}
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Segments that failed the sequence/ack checks — blind injections.
        self.injections_rejected = 0
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_failure: Optional[Callable[[str], None]] = None
        self._connect_timer = None
        self._connect_timeout = CONNECT_TIMEOUT
        self._opened = state is not ConnectionState.SYN_SENT
        self.mss = stack.mss_for(remote_ip)

    @property
    def key(self) -> ConnectionKey:
        return (self.remote_ip, self.remote_port, self.local_port)

    @property
    def established(self) -> bool:
        return self.state is ConnectionState.ESTABLISHED

    # -- opening -------------------------------------------------------------
    def open(self, fast_open_payload: bytes = b"") -> None:
        """Send the SYN, optionally carrying a TFO-style first flight.

        Carrying data on the SYN is what collapses a warm secure transport
        to UDP parity: the resumption hello plus early-data records ride the
        very first segment, and the server's answer rides its SYN-ACK
        flight.  The SYN-ACK must acknowledge the first-flight bytes too,
        so ``snd_nxt`` advances past them — a blind injector now has to
        guess the ISN *and* the flight length.
        """
        if self.state is not ConnectionState.SYN_SENT or self._opened:
            raise TransportError("connection was already opened")
        self._opened = True
        self._emit(FLAG_SYN, fast_open_payload)
        self.snd_nxt = (self.iss + 1 + len(fast_open_payload)) % _SEQ_MOD
        self._connect_timer = self.stack.simulator.schedule(
            self._connect_timeout, self._on_connect_timeout)

    # -- sending -------------------------------------------------------------
    def send(self, data: bytes) -> None:
        """Send application bytes, segmented to the MSS."""
        if self.state is not ConnectionState.ESTABLISHED:
            raise TransportError(f"cannot send in state {self.state.value}")
        for start in range(0, len(data), self.mss):
            self._emit(FLAG_ACK, data[start:start + self.mss])

    def _emit(self, flags: int, payload: bytes = b"") -> None:
        seq = self.iss if flags & FLAG_SYN else self.snd_nxt
        segment = TCPSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=self.rcv_nxt if (flags & FLAG_ACK and self.rcv_nxt is not None) else 0,
            flags=flags,
            payload=payload,
        )
        advance = len(payload)
        if flags & (FLAG_SYN | FLAG_FIN):
            advance += 1
        if not flags & FLAG_SYN:
            self.snd_nxt = (self.snd_nxt + advance) % _SEQ_MOD
        self.bytes_sent += len(payload)
        self.stack.transmit(self, segment)

    def close(self) -> None:
        """Send FIN (when established) and tear the connection down."""
        if self.state is ConnectionState.ESTABLISHED:
            self._emit(FLAG_FIN | FLAG_ACK)
        self._teardown(notify_close=False)

    def _teardown(self, notify_close: bool) -> None:
        if self.state is ConnectionState.CLOSED:
            return
        self.state = ConnectionState.CLOSED
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        self.stack.forget(self)
        if notify_close and self.on_close is not None:
            self.on_close()

    def fail(self, reason: str) -> None:
        """Abort the attempt/connection and notify the owner."""
        obs = self.stack.obs
        if obs.enabled:
            obs.metrics.counter("tcp.connection_failures", reason=reason).inc()
            obs.trace.instant("tcp.failure", category="tcp", reason=reason,
                              host=self.stack.host.address,
                              remote=self.remote_ip, port=self.remote_port)
        callback = self.on_failure
        self._teardown(notify_close=False)
        if callback is not None:
            callback(reason)

    def _on_connect_timeout(self) -> None:
        if self.state is ConnectionState.SYN_SENT:
            self.fail("connect timeout")

    # -- receiving -----------------------------------------------------------
    def handle_segment(self, segment: TCPSegment) -> None:
        if segment.flags & FLAG_RST:
            self._handle_rst(segment)
            return
        if self.state is ConnectionState.SYN_SENT:
            self._handle_syn_sent(segment)
        elif self.state is ConnectionState.SYN_RECEIVED:
            self._handle_syn_received(segment)
        elif self.state is ConnectionState.ESTABLISHED:
            self._handle_established(segment)

    def _handle_rst(self, segment: TCPSegment) -> None:
        # A reset is only honoured when it proves knowledge of the secrets a
        # blind attacker lacks: the handshake ack while connecting, the exact
        # expected sequence number afterwards.
        acceptable = (
            segment.ack == self.snd_nxt
            if self.state is ConnectionState.SYN_SENT
            else self.rcv_nxt is not None and segment.seq == self.rcv_nxt)
        if not acceptable:
            self._reject(segment)
            return
        self.fail("connection reset by peer")

    def _handle_syn_sent(self, segment: TCPSegment) -> None:
        if not (segment.flags & FLAG_SYN and segment.flags & FLAG_ACK):
            self._reject(segment)
            return
        if segment.ack != self.snd_nxt:
            # A spoofed SYN-ACK that does not acknowledge our (unobserved)
            # ISN — and, on a fast-open SYN, the first-flight bytes — exactly
            # what an off-path injector would send.
            self._reject(segment)
            return
        self.rcv_nxt = (segment.seq + 1) % _SEQ_MOD
        self.state = ConnectionState.ESTABLISHED
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        obs = self.stack.obs
        if obs.enabled:
            obs.metrics.counter("tcp.connections_established", side="client").inc()
            obs.trace.instant("tcp.established", category="tcp", side="client",
                              host=self.stack.host.address,
                              remote=self.remote_ip, port=self.remote_port)
        self._emit(FLAG_ACK)
        if self.on_established is not None:
            self.on_established()

    def _handle_syn_received(self, segment: TCPSegment) -> None:
        if not segment.flags & FLAG_ACK or segment.ack != (self.iss + 1) % _SEQ_MOD:
            self._reject(segment)
            return
        self.state = ConnectionState.ESTABLISHED
        self.stack.promote(self)
        if segment.payload:
            self._handle_established(segment)

    def _handle_established(self, segment: TCPSegment) -> None:
        if segment.flags & FLAG_FIN:
            if segment.seq != self.rcv_nxt:
                self._reject(segment)
                return
            self._teardown(notify_close=True)
            return
        if not segment.payload:
            return  # bare ACK
        distance = (segment.seq - self.rcv_nxt) % _SEQ_MOD
        if distance >= RECEIVE_WINDOW:
            # Out-of-window data: the sequence check that blinds off-path
            # injection into an established stream.
            self._reject(segment)
            return
        self._out_of_order[segment.seq] = segment.payload
        while self.rcv_nxt in self._out_of_order:
            chunk = self._out_of_order.pop(self.rcv_nxt)
            self.rcv_nxt = (self.rcv_nxt + len(chunk)) % _SEQ_MOD
            self.bytes_received += len(chunk)
            if self.on_data is not None:
                self.on_data(chunk)

    def _reject(self, segment: TCPSegment) -> None:
        self.injections_rejected += 1
        self.stack.segments_rejected += 1
        obs = self.stack.obs
        if obs.enabled:
            obs.metrics.counter("tcp.injections_rejected").inc()
            obs.trace.instant("tcp.injection_rejected", category="tcp",
                              host=self.stack.host.address,
                              remote=self.remote_ip, port=self.local_port,
                              state=self.state.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Connection {self.stack.host.address}:{self.local_port} -> "
                f"{self.remote_ip}:{self.remote_port} {self.state.value}>")


class Listener:
    """A passive TCP endpoint with a finite half-open backlog."""

    def __init__(self, stack: TCPStack, port: int,
                 on_connection: Callable[[Connection], None],
                 backlog: int = DEFAULT_BACKLOG,
                 syn_timeout: float = SYN_TIMEOUT,
                 fast_open: bool = False) -> None:
        self.stack = stack
        self.port = port
        self.on_connection = on_connection
        self.backlog = backlog
        self.syn_timeout = syn_timeout
        #: Accept TFO-style data on the SYN itself: the connection is
        #: promoted before the final ACK and the first-flight bytes are
        #: delivered immediately.  This is what makes 0-RTT replayable —
        #: the listener cannot tell a replayed SYN+flight from a fresh one.
        self.fast_open = fast_open
        self.half_open: dict[ConnectionKey, Connection] = {}
        self.connections_accepted = 0
        #: Connections accepted with data on the SYN (fast-open path).
        self.fast_opens_accepted = 0
        #: SYNs dropped because every backlog slot was occupied — the
        #: observable footprint of a SYN flood.
        self.syns_dropped = 0

    def handle_syn(self, src_ip: str, segment: TCPSegment) -> None:
        key = (src_ip, segment.src_port, self.port)
        if key in self.stack.connections:
            return  # duplicate SYN for an in-progress or established flow
        if len(self.half_open) >= self.backlog:
            self.syns_dropped += 1
            self.stack.syns_dropped += 1
            obs = self.stack.obs
            if obs.enabled:
                obs.metrics.counter("tcp.syns_dropped").inc()
                obs.trace.instant("tcp.syn_dropped", category="tcp",
                                  host=self.stack.host.address, port=self.port,
                                  src=src_ip)
            return
        connection = Connection(
            self.stack,
            local_port=self.port,
            remote_ip=src_ip,
            remote_port=segment.src_port,
            isn=self.stack.rng.getrandbits(32),
            state=ConnectionState.SYN_RECEIVED,
        )
        first_flight = segment.payload if self.fast_open else b""
        connection.rcv_nxt = (segment.seq + 1 + len(first_flight)) % _SEQ_MOD
        self.half_open[key] = connection
        self.stack.connections[key] = connection
        connection._emit(FLAG_SYN | FLAG_ACK)
        if first_flight:
            # Fast open: promote before the final ACK so the application can
            # answer in the SYN-ACK's flight, then deliver the early bytes.
            connection.state = ConnectionState.ESTABLISHED
            self.fast_opens_accepted += 1
            self.stack.promote(connection)
            connection.bytes_received += len(first_flight)
            if connection.on_data is not None:
                connection.on_data(first_flight)
            return
        self.stack.simulator.schedule(
            self.syn_timeout, lambda c=connection: self._expire_half_open(c))

    def _expire_half_open(self, connection: Connection) -> None:
        if connection.state is ConnectionState.SYN_RECEIVED:
            connection._teardown(notify_close=False)

    def _promoted(self, connection: Connection) -> None:
        self.half_open.pop(connection.key, None)
        self.connections_accepted += 1
        self.on_connection(connection)

    def _forgotten(self, connection: Connection) -> None:
        self.half_open.pop(connection.key, None)


class TCPStack:
    """Per-host TCP endpoint table; created lazily via ``Host.tcp``."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.network = host.network
        #: Observability facade, cached off the simulator (segment handling
        #: is a hot path for the encrypted-transport experiments).
        self.obs = host.network.simulator.obs
        self.listeners: dict[int, Listener] = {}
        self.connections: dict[ConnectionKey, Connection] = {}
        self.segments_received = 0
        self.segments_rejected = 0
        #: Segments dropped because they did not decode.
        self.segments_malformed = 0
        self.syns_dropped = 0

    @property
    def simulator(self):
        return self.network.simulator

    @property
    def rng(self):
        return self.network.simulator.rng

    def mss_for(self, remote_ip: str) -> int:
        """Largest segment payload that never IP-fragments on the path."""
        mtu = self.network.effective_mtu(self.host.address, remote_ip)
        return max(mtu - IPV4_HEADER_SIZE - TCP_HEADER_SIZE, MIN_MSS)

    # -- active/passive open ---------------------------------------------------
    def listen(self, port: int, on_connection: Callable[[Connection], None],
               backlog: int = DEFAULT_BACKLOG,
               syn_timeout: float = SYN_TIMEOUT,
               fast_open: bool = False) -> Listener:
        if port in self.listeners:
            raise TransportError(f"port {port} already has a listener")
        listener = Listener(self, port, on_connection, backlog=backlog,
                            syn_timeout=syn_timeout, fast_open=fast_open)
        self.listeners[port] = listener
        return listener

    def connect(self, remote_ip: str, remote_port: int,
                local_port: Optional[int] = None,
                timeout: float = CONNECT_TIMEOUT) -> Connection:
        """Open a connection (SYN goes out immediately); returns it in
        ``SYN_SENT`` so the caller can attach callbacks before any reply."""
        connection = self.create_connection(remote_ip, remote_port,
                                            local_port=local_port, timeout=timeout)
        connection.open()
        return connection

    def create_connection(self, remote_ip: str, remote_port: int,
                          local_port: Optional[int] = None,
                          timeout: float = CONNECT_TIMEOUT) -> Connection:
        """Allocate a ``SYN_SENT`` connection without emitting the SYN.

        Callers that put data on the SYN itself — the 0-RTT resumption
        transport — need the connection object (to compose the first
        flight against its channel) before the segment leaves, so creation
        and :meth:`Connection.open` are split.  Port and ISN draws happen
        here, in :meth:`connect`'s order, keeping seeded runs bit-identical.
        """
        if local_port is None:
            local_port = self._ephemeral_port(remote_ip, remote_port)
        connection = Connection(
            self,
            local_port=local_port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            isn=self.rng.getrandbits(32),
            state=ConnectionState.SYN_SENT,
        )
        connection._connect_timeout = timeout
        key = connection.key
        if key in self.connections:
            raise TransportError(f"connection {key} already exists")
        self.connections[key] = connection
        return connection

    def _ephemeral_port(self, remote_ip: str, remote_port: int) -> int:
        while True:
            port = self.rng.randrange(20000, 60000)
            if (remote_ip, remote_port, port) not in self.connections:
                return port

    # -- segment plumbing ------------------------------------------------------
    def transmit(self, connection: Connection, segment: TCPSegment) -> None:
        self.network.send_packet(
            IPPacket(
                src_ip=self.host.address,
                dst_ip=connection.remote_ip,
                ip_id=self.network.next_ip_id(self.host.address),
                payload=segment.encode(),
                protocol=PROTO_TCP,
            )
        )

    def handle_packet(self, packet: IPPacket) -> None:
        try:
            segment = TCPSegment.decode(packet.payload)
        except PacketError:
            self.segments_malformed += 1
            if self.obs.enabled:
                self.obs.metrics.counter("tcp.malformed", site="segment").inc()
            return
        self.segments_received += 1
        connection = self.connections.get(
            (packet.src_ip, segment.src_port, segment.dst_port))
        if connection is not None:
            connection.handle_segment(segment)
            return
        listener = self.listeners.get(segment.dst_port)
        if (listener is not None and segment.flags & FLAG_SYN
                and not segment.flags & FLAG_ACK):
            listener.handle_syn(packet.src_ip, segment)
        # Anything else is dropped silently (see module docstring).

    def promote(self, connection: Connection) -> None:
        if self.obs.enabled:
            self.obs.metrics.counter("tcp.connections_established",
                                     side="server").inc()
            self.obs.trace.instant("tcp.established", category="tcp",
                                   side="server", host=self.host.address,
                                   remote=connection.remote_ip,
                                   port=connection.local_port)
        listener = self.listeners.get(connection.local_port)
        if listener is not None:
            listener._promoted(connection)
        elif connection.on_established is not None:  # pragma: no cover - defensive
            connection.on_established()

    def forget(self, connection: Connection) -> None:
        self.connections.pop(connection.key, None)
        listener = self.listeners.get(connection.local_port)
        if listener is not None:
            listener._forgotten(connection)


# -- application-facing stream sockets ----------------------------------------


class StreamSocket:
    """Uniform byte-stream interface shared by plaintext and TLS channels.

    ``on_ready`` fires when application data may flow (connection
    established, and — for :class:`SecureChannel` — the handshake done);
    ``on_data`` receives ordered plaintext bytes; ``on_failure`` reports
    connect timeouts, resets and handshake failures.
    """

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self.on_ready: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_failure: Optional[Callable[[str], None]] = None

    @property
    def ready(self) -> bool:
        raise NotImplementedError

    def send(self, data: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self.connection.close()

    def _fire_ready(self) -> None:
        if self.on_ready is not None:
            self.on_ready()

    def _fire_failure(self, reason: str) -> None:
        if self.on_failure is not None:
            self.on_failure(reason)

    def _fire_close(self) -> None:
        if self.on_close is not None:
            self.on_close()


class PlainStreamSocket(StreamSocket):
    """A cleartext byte stream straight over a :class:`Connection`."""

    def __init__(self, connection: Connection) -> None:
        super().__init__(connection)
        connection.on_established = self._fire_ready
        connection.on_data = self._on_connection_data
        connection.on_close = self._fire_close
        connection.on_failure = self._fire_failure

    @property
    def ready(self) -> bool:
        return self.connection.established

    def send(self, data: bytes) -> None:
        self.connection.send(data)

    def _on_connection_data(self, data: bytes) -> None:
        if self.on_data is not None:
            self.on_data(data)


# -- the TLS model -------------------------------------------------------------

#: The secp256k1 field prime — a fixed, well-known 256-bit prime for the
#: ephemeral Diffie-Hellman exchange.  Model-strength, not production crypto:
#: what matters is that taps and diverted hosts cannot derive the session key
#: from the observed shares.
DH_PRIME = 2**256 - 2**32 - 977
DH_GENERATOR = 5


@functools.cache
def _generator_table() -> tuple[tuple[int, ...], ...]:
    """Fixed-base table: row ``i`` holds ``g^(b·256^i) mod p`` for ``b`` in 0..255.

    32 rows cover any exponent below ``2**256``.  Built on the first
    handshake rather than at import, so runs without a secure channel never
    pay for it.
    """
    rows = []
    base = DH_GENERATOR
    for _ in range(32):
        row, power = [], 1
        for _ in range(256):
            row.append(power)
            power = power * base % DH_PRIME
        rows.append(tuple(row))
        base = power
    return tuple(rows)


def _generator_pow(exponent: int) -> int:
    """``pow(DH_GENERATOR, exponent, DH_PRIME)`` for ``0 <= exponent < 2**256``.

    One table multiply per non-zero exponent byte instead of a square-and-
    multiply ladder.
    """
    result = 1
    for row, byte in zip(_generator_table(), exponent.to_bytes(32, "little")):
        if byte:
            result = result * row[byte] % DH_PRIME
    return result


#: ``share -> exponent`` for every share a channel in this process computed
#: and no peer has consumed yet (a handshake that fails before the peer
#: derives leaves its entry).  Private to the simulation, like a server's
#: ``cert_key``: no attacker code reads it.
_SHARE_EXPONENTS: dict[int, int] = {}


_REC_CLIENT_HELLO = 1
_REC_SERVER_HELLO = 2
_REC_TICKET = 4
_REC_RESUME_HELLO = 5
_REC_RESUME_ACK = 6
_REC_EARLY_DATA = 7
_REC_ALERT = 21
_REC_APP_DATA = 23


@dataclass(frozen=True)
class SessionTicket:
    """A resumption ticket: an opaque nonce plus the PSK it stands for.

    The nonce travels in cleartext (observers learn it); the PSK is derived
    from the *session key* of the handshake that issued it, which taps never
    see — so holding a recorded nonce does not let an off-path attacker
    forge a resumption.  What it *does* allow is replaying a full recorded
    first flight verbatim, the faithful 0-RTT caveat.
    """

    nonce: bytes
    psk: bytes


class ResumptionTicketStore:
    """Server-side session cache mapping ticket nonces to PSKs.

    ``single_use`` models anti-replay ticket burning: each ticket redeems at
    most once, which defeats 0-RTT replay at the cost of one full handshake
    per replay-suspected connection.  The default (reusable tickets) is the
    deployed-reality configuration the attacker row exploits.
    """

    def __init__(self, single_use: bool = False) -> None:
        self.single_use = single_use
        self._tickets: dict[bytes, bytes] = {}
        self.issued = 0
        self.redeemed = 0
        self.rejected = 0

    def issue(self, nonce: bytes, psk: bytes) -> None:
        self._tickets[nonce] = psk
        self.issued += 1

    def redeem(self, nonce: bytes) -> Optional[bytes]:
        psk = (self._tickets.pop(nonce, None) if self.single_use
               else self._tickets.get(nonce))
        if psk is None:
            self.rejected += 1
        else:
            self.redeemed += 1
        return psk


def certificate_signature(cert_key: str, subject: str, share: int,
                          server_random: bytes) -> bytes:
    """Keyed digest binding a server's ephemeral share to its identity.

    The same modelling idiom as DNSSEC response signing in
    :mod:`repro.defenses.hardening`: the key stands in for the zone's
    certificate/CA key, secret by convention.  Covering the ephemeral share
    and the server random makes the signature useless for replay by an
    impersonator.
    """
    material = f"{cert_key}|{subject}|{share}|{server_random.hex()}"
    return hashlib.sha256(material.encode("ascii")).digest()


def _frame_record(record_type: int, body: bytes) -> bytes:
    return bytes([record_type]) + len(body).to_bytes(2, "big") + body


def _keystream(key: bytes, label: bytes, counter: int, length: int) -> bytes:
    """``length`` bytes of SHA-256 counter-mode keystream for one record."""
    prefix = key + label + counter.to_bytes(8, "big")
    blocks = b"".join(hashlib.sha256(prefix + block.to_bytes(4, "big")).digest()
                      for block in range((length + 31) // 32))
    return blocks[:length]


def _xor(data: bytes, keystream: bytes) -> bytes:
    """``data`` XOR an equally long ``keystream``, as one integer operation."""
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(keystream, "big")).to_bytes(len(data), "big")


class FrameDecoder:
    """Reassembles ``prefix | len16 | body`` frames from stream chunks.

    ``prefix`` is 1 for a secure-channel record (the byte is its type) and 0
    for an RFC 1035 stream DNS message.  :meth:`feed` returns ``(type, body)``
    pairs with a prefix and bare bodies without one.
    """

    def __init__(self, prefix: int) -> None:
        self._buffer = bytearray()
        self._prefix = prefix

    def feed(self, data: bytes) -> list:
        buffer, prefix = self._buffer, self._prefix
        buffer += data
        frames = []
        while len(buffer) >= prefix + 2:
            end = prefix + 2 + int.from_bytes(buffer[prefix:prefix + 2], "big")
            if len(buffer) < end:
                break
            body = bytes(buffer[prefix + 2:end])
            frames.append((buffer[0], body) if prefix else body)
            del buffer[:end]
        return frames


class SecureChannel(StreamSocket):
    """A TLS 1.3-flavoured secure byte stream over a :class:`Connection`.

    Client side::

        channel = SecureChannel.client(connection, rng,
                                       expected_identity="pool.ntp.org",
                                       trust_anchor=cert_key)

    Server side (inside a listener's ``on_connection``)::

        channel = SecureChannel.server(connection, rng,
                                       identity="pool.ntp.org",
                                       cert_key=cert_key)

    Handshake cost is one round trip on top of the TCP handshake
    (ClientHello out with the final ACK's flight, ServerHello back).  The
    client rejects a ServerHello whose certificate subject differs from the
    pinned ``expected_identity`` or whose signature does not verify under
    the ``trust_anchor`` — which is exactly what stops a BGP hijacker, who
    can complete a TCP handshake for the diverted address but holds no
    certificate key.  After the handshake, application bytes travel as
    XOR-keystream ciphertext records: opaque to taps.
    """

    def __init__(self, connection: Connection, rng, *, client: bool,
                 identity: Optional[str] = None,
                 cert_key: Optional[str] = None,
                 expected_identity: Optional[str] = None,
                 trust_anchor: Optional[str] = None,
                 ticket: Optional[SessionTicket] = None,
                 on_ticket: Optional[Callable[[SessionTicket], None]] = None,
                 ticket_store: Optional[ResumptionTicketStore] = None) -> None:
        super().__init__(connection)
        self.is_client = client
        self.identity = identity
        self.cert_key = cert_key
        self.expected_identity = expected_identity
        self.trust_anchor = trust_anchor
        self.peer_identity: Optional[str] = None
        self.handshake_complete = False
        #: True once this channel completed a ticket resumption (either side).
        self.resumed = False
        self._rng = rng
        self._decoder = FrameDecoder(prefix=1)
        # Both draws happen here, in this order, whether or not the share is
        # ever sent: the seeded RNG sequence must not depend on resumption.
        self._secret = rng.getrandbits(255) | 1
        self._random = rng.getrandbits(256).to_bytes(32, "big")
        self._key: Optional[bytes] = None
        self._send_counter = 0
        self._recv_counter = 0
        self._ticket = ticket
        self._on_ticket = on_ticket
        self._ticket_store = ticket_store
        self._early_key: Optional[bytes] = None
        self._early_send_counter = 0
        self._early_recv_counter = 0
        self._first_flight_sent = False
        connection.on_data = self._on_connection_data
        connection.on_close = self._fire_close
        connection.on_failure = self._fire_failure
        if client and ticket is None:
            if connection.established:
                self._send_client_hello()
            else:
                connection.on_established = self._send_client_hello

    # -- constructors ----------------------------------------------------------
    @classmethod
    def client(cls, connection: Connection, rng, *, expected_identity: str,
               trust_anchor: str, ticket: Optional[SessionTicket] = None,
               on_ticket: Optional[Callable[[SessionTicket], None]] = None,
               ) -> SecureChannel:
        return cls(connection, rng, client=True,
                   expected_identity=expected_identity, trust_anchor=trust_anchor,
                   ticket=ticket, on_ticket=on_ticket)

    @classmethod
    def server(cls, connection: Connection, rng, *, identity: str,
               cert_key: str,
               ticket_store: Optional[ResumptionTicketStore] = None,
               ) -> SecureChannel:
        return cls(connection, rng, client=False, identity=identity,
                   cert_key=cert_key, ticket_store=ticket_store)

    @property
    def ready(self) -> bool:
        return self.handshake_complete and self.connection.established

    @functools.cached_property
    def _share(self) -> int:
        """The ephemeral DH public share, computed when a hello first sends it."""
        share = _generator_pow(self._secret)
        _SHARE_EXPONENTS[share] = self._secret
        return share

    # -- handshake -------------------------------------------------------------
    def _send_client_hello(self) -> None:
        body = self._random + self._share.to_bytes(32, "big")
        self.connection.send(_frame_record(_REC_CLIENT_HELLO, body))

    def _handle_client_hello(self, body: bytes) -> None:
        if len(body) != 64 or self.is_client:
            self._abort("malformed ClientHello")
            return
        if self.handshake_complete:
            self._abort("repeated ClientHello")
            return
        client_random = body[:32]
        client_share = int.from_bytes(body[32:64], "big")
        subject = (self.identity or "").encode("ascii")
        signature = certificate_signature(self.cert_key or "", self.identity or "",
                                          self._share, self._random)
        hello = (
            self._random
            + self._share.to_bytes(32, "big")
            + len(subject).to_bytes(2, "big") + subject
            + signature
        )
        self.connection.send(_frame_record(_REC_SERVER_HELLO, hello))
        self._derive_key(client_share, client_random, self._random)
        self.handshake_complete = True
        if self._ticket_store is not None:
            # Issue a resumption ticket off the fresh session key.  The RNG
            # draw happens only when a store is attached, so channels without
            # resumption enabled keep their seeded draw sequence unchanged.
            nonce = self._rng.getrandbits(128).to_bytes(16, "big")
            assert self._key is not None
            psk = hashlib.sha256(self._key + nonce).digest()
            self._ticket_store.issue(nonce, psk)
            self.connection.send(_frame_record(_REC_TICKET, nonce))
        self._fire_ready()

    def _handle_server_hello(self, body: bytes) -> None:
        if not self.is_client or len(body) < 66:
            self._abort("malformed ServerHello")
            return
        server_random = body[:32]
        server_share = int.from_bytes(body[32:64], "big")
        subject_length = int.from_bytes(body[64:66], "big")
        if len(body) != 66 + subject_length + 32:
            self._abort("malformed ServerHello")
            return
        subject = body[66:66 + subject_length].decode("ascii", errors="replace")
        signature = body[66 + subject_length:]
        if subject != self.expected_identity:
            self._abort(f"certificate subject {subject!r} is not the pinned "
                        f"identity {self.expected_identity!r}")
            return
        expected = certificate_signature(self.trust_anchor or "", subject,
                                         server_share, server_random)
        if signature != expected:
            self._abort("certificate signature did not verify")
            return
        self.peer_identity = subject
        self._derive_key(server_share, self._random, server_random)
        self.handshake_complete = True
        self._fire_ready()

    # -- 0-RTT resumption ------------------------------------------------------
    def first_flight(self, early_data: bytes = b"") -> bytes:
        """Compose the resumption first flight for a fast-open SYN.

        Returns the wire bytes of a ``ResumeHello`` (ticket nonce + client
        random) followed by an ``EarlyData`` record carrying ``early_data``
        encrypted under the early key.  The early key is derived from the
        PSK and the *client* random only — there is no server contribution
        yet, which is precisely why recorded first flights replay cleanly.
        """
        if not self.is_client or self._ticket is None:
            raise TransportError("first_flight requires a client with a ticket")
        if self._first_flight_sent:
            raise TransportError("first flight was already composed")
        self._first_flight_sent = True
        self._early_key = hashlib.sha256(
            self._ticket.psk + b"early" + self._random).digest()
        hello = (len(self._ticket.nonce).to_bytes(2, "big") + self._ticket.nonce
                 + self._random)
        flight = _frame_record(_REC_RESUME_HELLO, hello)
        if early_data:
            keystream = _keystream(self._early_key, b"early",
                                   self._early_send_counter, len(early_data))
            self._early_send_counter += 1
            ciphertext = _xor(early_data, keystream)
            flight += _frame_record(_REC_EARLY_DATA, ciphertext)
        return flight

    def _handle_ticket(self, body: bytes) -> None:
        if not self.is_client or self._key is None:
            self._abort("unsolicited session ticket")
            return
        psk = hashlib.sha256(self._key + body).digest()
        if self._on_ticket is not None:
            self._on_ticket(SessionTicket(nonce=body, psk=psk))

    def _handle_resume_hello(self, body: bytes) -> None:
        if self.is_client or len(body) < 2:
            self._abort("malformed ResumeHello")
            return
        nonce_length = int.from_bytes(body[:2], "big")
        if len(body) != 2 + nonce_length + 32:
            self._abort("malformed ResumeHello")
            return
        nonce = body[2:2 + nonce_length]
        client_random = body[2 + nonce_length:]
        psk = (self._ticket_store.redeem(nonce)
               if self._ticket_store is not None else None)
        if psk is None:
            self._abort("unknown session ticket")
            return
        self._early_key = hashlib.sha256(psk + b"early" + client_random).digest()
        self._key = hashlib.sha256(psk + client_random + self._random).digest()
        self.resumed = True
        self.handshake_complete = True
        self.connection.send(_frame_record(_REC_RESUME_ACK, self._random))
        self._fire_ready()

    def _handle_resume_ack(self, body: bytes) -> None:
        if not self.is_client or self._ticket is None or len(body) != 32:
            self._abort("malformed ResumeAck")
            return
        self._key = hashlib.sha256(
            self._ticket.psk + self._random + body).digest()
        # The ticket chains back to a handshake that verified the pinned
        # certificate; resumption inherits that authentication.
        self.peer_identity = self.expected_identity
        self.resumed = True
        self.handshake_complete = True
        self._fire_ready()

    def _handle_early_data(self, body: bytes) -> None:
        if self.is_client or self._early_key is None:
            self._abort("early data without a resumed session")
            return
        keystream = _keystream(self._early_key, b"early",
                               self._early_recv_counter, len(body))
        self._early_recv_counter += 1
        plaintext = _xor(body, keystream)
        if self.on_data is not None:
            self.on_data(plaintext)

    def _derive_key(self, peer_share: int, client_random: bytes,
                    server_random: bytes) -> None:
        peer_exponent = _SHARE_EXPONENTS.pop(peer_share, None)
        if peer_exponent is None:
            shared = pow(peer_share, self._secret, DH_PRIME)
        else:
            shared = _generator_pow(peer_exponent * self._secret % (DH_PRIME - 1))
        self._key = hashlib.sha256(
            shared.to_bytes(32, "big") + client_random + server_random).digest()

    def _abort(self, reason: str) -> None:
        if self.connection.established:
            self.connection.send(_frame_record(_REC_ALERT, reason.encode()))
        self.connection.close()
        self._fire_failure(reason)

    # -- application data --------------------------------------------------------
    def send(self, data: bytes) -> None:
        if not self.ready:
            raise TransportError("secure channel is not ready")
        direction = b"c2s" if self.is_client else b"s2c"
        assert self._key is not None
        keystream = _keystream(self._key, direction, self._send_counter, len(data))
        self._send_counter += 1
        ciphertext = _xor(data, keystream)
        self.connection.send(_frame_record(_REC_APP_DATA, ciphertext))

    def _handle_app_data(self, body: bytes) -> None:
        if self._key is None:
            self._abort("application data before handshake")
            return
        direction = b"s2c" if self.is_client else b"c2s"
        keystream = _keystream(self._key, direction, self._recv_counter, len(body))
        self._recv_counter += 1
        plaintext = _xor(body, keystream)
        if self.on_data is not None:
            self.on_data(plaintext)

    # -- record dispatch -----------------------------------------------------------
    def _on_connection_data(self, data: bytes) -> None:
        for record_type, body in self._decoder.feed(data):
            if self.connection.state is ConnectionState.CLOSED:
                return  # an abort, an alert or the application closed it
            if record_type == _REC_CLIENT_HELLO:
                self._handle_client_hello(body)
            elif record_type == _REC_SERVER_HELLO:
                self._handle_server_hello(body)
            elif record_type == _REC_TICKET:
                self._handle_ticket(body)
            elif record_type == _REC_RESUME_HELLO:
                self._handle_resume_hello(body)
            elif record_type == _REC_RESUME_ACK:
                self._handle_resume_ack(body)
            elif record_type == _REC_EARLY_DATA:
                self._handle_early_data(body)
            elif record_type == _REC_APP_DATA:
                self._handle_app_data(body)
            elif record_type == _REC_ALERT:
                self.connection.close()
                self._fire_failure(body.decode("utf-8", errors="replace"))
