"""The simulated network: hosts and packet delivery.

Hosts register with a :class:`Network` under one or more IPv4 addresses and
exchange UDP datagrams.  A pool of addresses (:meth:`Network.add_pool`) gets
its hosts built on their first packet, so a world costs only the hosts its
run touches.  Delivery goes through three stages that mirror what the
attacks care about:

1. *Routing* — normally straight to the host owning the destination address,
   but a :class:`repro.netsim.bgp.RoutingTable` can divert a prefix to a
   hijacker.
2. *Fragmentation* — the sending host's path MTU (set per source, else
   1,500 bytes) decides whether the datagram is split; the receiving host's
   :class:`repro.netsim.fragmentation.ReassemblyBuffer` reassembles, which is
   where spoofed fragments get glued in.
3. *Delivery* — after the network's one-way latency, the destination host's
   ``handle_datagram`` runs.

Every impairment — loss, extra latency, jitter, duplication, outages — comes
from an armed :class:`repro.faults.FaultPlan` (see :attr:`Network.faults`),
so a pristine network draws nothing from the simulator's RNG.

Off-path attackers cannot observe traffic (the network never copies packets
to them) but can inject raw IP packets with arbitrary source addresses via
:meth:`Network.inject`, which is all the fragmentation-poisoning attack
needs.  On-path attackers are modelled with taps.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import partial
from typing import TYPE_CHECKING, Optional

from .bgp import RoutingTable
from .fragmentation import ReassemblyBuffer, fragment_datagram
from .packets import DEFAULT_MTU, PROTO_TCP, IPPacket, UDPDatagram
from .simulator import EventHandle, Simulator

if TYPE_CHECKING:  # imported lazily at runtime; see Host.tcp
    from .transport import TCPStack


class NetworkError(RuntimeError):
    """Raised for misconfiguration of the simulated network."""


#: A tap sees (packet, simulated-time) for every packet traversing the network.
Tap = Callable[[IPPacket, float], None]


def _deliver_all(batch: list[tuple[Host, IPPacket]]) -> None:
    """One delivery event: hand each packet to its host in transmit order."""
    for destination, packet in batch:
        destination.deliver_packet(packet)


class Host:
    """Base class for every simulated endpoint (resolvers, servers, clients).

    Subclasses override :meth:`handle_datagram`.  Each host owns a
    defragmentation cache, where the fragmentation-poisoning vector splices
    its planted fragments.  A pool host
    (:meth:`Network.add_pool`) is built on its first packet, so its state
    must not depend on when it is built.
    """

    def __init__(self, network: Network, address: str, name: Optional[str] = None) -> None:
        self.network = network
        self.address = address
        self.name = name or f"host-{address}"
        self.reassembly = ReassemblyBuffer()
        #: Whether the datagram currently being handled was assembled from a
        #: spoofed fragment; application layers (the DNS resolver) consult it
        #: to tag cache entries for experiment reporting.
        self.last_datagram_poisoned = False
        #: Lazily-created TCP endpoint table (see :attr:`tcp`); ``None`` for
        #: the (overwhelmingly common) datagram-only hosts.
        self._tcp: Optional["TCPStack"] = None
        network.register(self)

    @property
    def tcp(self) -> TCPStack:
        """This host's TCP endpoint table, created on first use.

        Datagram-only hosts never pay for it; hosts that listen or connect
        (encrypted-transport nameservers and resolvers) share one stack for
        all their connections.
        """
        if self._tcp is None:
            from .transport import TCPStack

            self._tcp = TCPStack(self)
        return self._tcp

    # -- sending -----------------------------------------------------------
    def send_udp(self, dst_ip: str, src_port: int, dst_port: int, payload: bytes) -> None:
        """Send ``payload`` in one UDP datagram from this host's address."""
        self.network.send_datagram(UDPDatagram(self.address, dst_ip, src_port, dst_port, payload))

    # -- receiving ---------------------------------------------------------
    def deliver_packet(self, packet: IPPacket) -> None:
        """Called by the network for every IP packet addressed to this host."""
        if packet.protocol == PROTO_TCP:
            # Stream transports bypass the defragmentation path entirely:
            # segments are MSS-sized and never fragment.  Hosts with no TCP
            # stack drop segments without a RST (see netsim.transport).
            if self._tcp is not None:
                self._tcp.handle_packet(packet)
            elif self.network.simulator.obs.enabled:
                self.network.simulator.obs.metrics.counter(
                    "tcp.dropped", reason="no_stack").inc()
            return
        obs = self.network.simulator.obs
        result = self.reassembly.add_fragment(packet, self.network.simulator.now)
        if result.datagram is None:
            return
        if not result.checksum_ok and not result.checksum_compensated:
            # A reassembled datagram whose UDP checksum no longer matches is
            # silently dropped — the failure mode of a sloppy fragment spoof
            # that did not compensate the checksum.
            if obs.enabled:
                obs.metrics.counter("net.datagrams_dropped", reason="checksum").inc()
                obs.trace.instant("net.drop", category="net", reason="checksum",
                                  src=packet.src_ip, dst=packet.dst_ip)
            return
        if obs.enabled:
            obs.metrics.counter("net.datagrams_delivered",
                                poisoned=result.poisoned).inc()
            if result.poisoned:
                obs.trace.instant("net.poisoned_delivery", category="net",
                                  dst=self.address, src=packet.src_ip)
        self.last_datagram_poisoned = result.poisoned
        try:
            self.handle_datagram(result.datagram)
        finally:
            self.last_datagram_poisoned = False

    def handle_datagram(self, datagram: UDPDatagram) -> None:  # pragma: no cover - abstract
        """Application-layer handler; overridden by DNS/NTP hosts."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} @ {self.address}>"


class Network:
    """Connects hosts and delivers packets under the simulator's clock."""

    def __init__(self, simulator: Simulator, latency: float = 0.02) -> None:
        self.simulator = simulator
        #: Observability snapshot; packet delivery is a hot path, so the
        #: facade is cached here rather than re-read through the simulator.
        self._obs = simulator.obs
        #: One-way latency of every packet (a fault plan may add to it).
        self.latency = latency
        self.routing_table = RoutingTable()
        self._hosts: dict[str, Host] = {}
        #: Pool addresses not built yet: address -> (builder, pool name).
        self._pending: dict[str, tuple[Callable[[str], Host], str]] = {}
        self._path_mtu: dict[str, int] = {}
        self._taps: list[Tap] = []
        self._next_ip_id: dict[str, int] = {}
        #: The last delivery event and the (host, packet) pairs it carries.
        self._batch: list[tuple[Host, IPPacket]] = []
        self._batch_event: Optional[EventHandle] = None
        #: Optional :class:`~repro.faults.injector.FaultInjector`, attached
        #: by its ``arm()``.  ``None`` (the default) keeps the transmit path
        #: at a single attribute check.
        self.faults = None

    # -- topology ----------------------------------------------------------
    def register(self, host: Host) -> None:
        """Register a host under its address (called by ``Host.__init__``)."""
        if host.address in self._hosts or host.address in self._pending:
            raise NetworkError(f"address {host.address} already registered")
        self._hosts[host.address] = host

    def add_pool(self, addresses: Iterable[str], build: Callable[[str], Host],
                 pool: str) -> None:
        """Register ``addresses`` as hosts ``build(address)`` makes (and
        registers) when :meth:`host_for` first asks for one, whether a packet
        is addressed or BGP-diverted there; ``pool`` labels ``net.hosts_built``."""
        for address in addresses:
            if address in self._hosts or address in self._pending:
                raise NetworkError(f"address {address} already registered")
            self._pending[address] = (build, pool)

    def host_for(self, address: str) -> Optional[Host]:
        """The host owning ``address`` (built now if it is a pool host),
        honouring any BGP hijack in effect."""
        diverted = self.routing_table.lookup(address)
        if diverted is not None and (diverted in self._hosts or diverted in self._pending):
            address = diverted
        host = self._hosts.get(address)
        if host is None and address in self._pending:
            build, pool = self._pending.pop(address)
            host = build(address)
            if self._obs.enabled:
                self._obs.metrics.counter("net.hosts_built", pool=pool).inc()
        return host

    def set_path_mtu(self, src: str, mtu: int) -> None:
        """Set the path MTU used for datagrams originating at ``src``.

        The paper's measurement found pool.ntp.org nameservers willing to
        fragment responses down to 548 bytes; experiments set this per
        nameserver to reproduce that.
        """
        self._path_mtu[src] = mtu

    def add_tap(self, tap: Tap) -> None:
        """Attach an on-path observer (MitM models, trace recording)."""
        self._taps.append(tap)

    def effective_mtu(self, src: str) -> int:
        """The MTU governing ``src``'s packets: its path MTU, else 1,500."""
        return self._path_mtu.get(src, DEFAULT_MTU)

    # -- sending -----------------------------------------------------------
    def next_ip_id(self, src: str) -> int:
        """Sequential per-source IP-ID counter.

        Many real stacks use globally or per-destination sequential IP-IDs,
        which is precisely what makes them predictable to an off-path
        attacker; the fragmentation attack exploits this predictability.
        """
        value = self._next_ip_id.get(src, 1)
        self._next_ip_id[src] = (value + 1) & 0xFFFF or 1
        return value

    def send_datagram(self, datagram: UDPDatagram) -> None:
        """Fragment (if needed) and deliver a UDP datagram."""
        mtu = self.effective_mtu(datagram.src_ip)
        ip_id = self.next_ip_id(datagram.src_ip)
        fragments = fragment_datagram(datagram, ip_id=ip_id, mtu=mtu)
        if len(fragments) > 1 and self._obs.enabled:
            self._obs.metrics.counter("net.datagrams_fragmented").inc()
            self._obs.trace.instant("net.fragment", category="net",
                                    src=datagram.src_ip, dst=datagram.dst_ip,
                                    fragments=len(fragments), ip_id=ip_id)
        for packet in fragments:
            self._transmit(packet)

    def send_packet(self, packet: IPPacket) -> None:
        """Send a fully-formed, non-UDP IP packet (TCP segments) from a host.

        No fragmentation is applied: stream transports size their segments
        to the effective MTU (see ``TCPStack.mss``), so a segment never
        needs to fragment — which is itself part of why encrypted transports
        kill the defragmentation-splice vector.
        """
        self._transmit(packet)

    def inject(self, packet: IPPacket) -> None:
        """Inject a raw IP packet with an arbitrary (spoofed) source address.

        This is the off-path attacker's only capability: no observation, just
        blind injection.  Each call is one packet to taps, faults and the
        counters; a burst of injections due at one instant is delivered by
        one simulator event (see :meth:`_deliver_after`).
        """
        if self._obs.enabled:
            self._obs.metrics.counter("net.packets_injected",
                                      spoofed=packet.spoofed).inc()
        self._transmit(packet)

    def _transmit(self, packet: IPPacket) -> None:
        """Taps, faults and routing see one packet; then it is delivered."""
        obs = self._obs
        if obs.enabled:
            obs.metrics.counter("net.packets_sent").inc()
            if self._taps:
                obs.metrics.counter("net.tap_observations").inc(len(self._taps))
        for tap in self._taps:
            tap(packet, self.simulator.now)
        extra_latency = 0.0
        duplicate_delay = None
        faults = self.faults
        if faults is not None:
            fault_reason, extra_latency, duplicate_delay = faults.on_transmit(packet)
            if fault_reason is not None:
                self._drop(packet, fault_reason)
                return
        destination = self.host_for(packet.dst_ip)
        if destination is None:
            self._drop(packet, "no-host")
            return
        latency = self.latency + extra_latency
        self._deliver_after(latency, destination, packet)
        if duplicate_delay is not None:
            if obs.enabled:
                obs.metrics.counter("net.packets_duplicated").inc()
                obs.trace.instant("net.duplicate", category="net",
                                  src=packet.src_ip, dst=packet.dst_ip)
            self._deliver_after(latency + duplicate_delay, destination, packet)

    def _drop(self, packet: IPPacket, reason: str) -> None:
        if self._obs.enabled:
            self._obs.metrics.counter("net.packets_dropped", reason=reason).inc()
            self._obs.trace.instant("net.drop", category="net", reason=reason,
                                    src=packet.src_ip, dst=packet.dst_ip)

    def _deliver_after(self, delay: float, destination: Host, packet: IPPacket) -> None:
        """Deliver ``packet`` to ``destination`` in ``delay`` seconds.

        When the last delivery event is due at that instant and nothing has
        been scheduled since, the packet joins it: that event fires its
        packets in transmit order, which is the order one event per packet
        would fire them in, since no other event can fall between them.
        """
        event = self._batch_event
        if event is not None and self.simulator.would_follow(event, delay):
            self._batch.append((destination, packet))
            return
        self._batch = [(destination, packet)]
        self._batch_event = self.simulator.schedule(delay, partial(_deliver_all, self._batch))
