"""The encrypted-transport downgrade attack: force plaintext, then poison.

Strict encrypted transport closes both of the paper's off-path vectors, so
the off-path attacker's remaining move against an *opportunistic* deployment
is to attack the fallback: make the encrypted connection fail, watch the
resolver walk back to plaintext UDP, and run the classic poisoning race
there.  The scenario stages exactly that, with spoofing as the only attacker
capability — consistent with the paper's threat model:

1. **Downgrade** — the attacker floods the nameserver's stream listeners
   (TCP 53, DoT 853, DoH 443) with SYNs from spoofed sources.  The spoofed
   sources never answer the SYN-ACKs, so every half-open slot of the finite
   accept backlog stays occupied until its timeout; the victim resolver's
   genuine SYN arrives at a full backlog and is dropped, its connect attempt
   times out, and an opportunistic policy falls back to plaintext UDP — the
   encrypted channel is made to *fail* rather than answer.
2. **Race** — with the query back on UDP, the attacker runs the §II.A
   defragmentation splice against the fragmenting nameserver: spoofed
   trailing fragments planted ahead of the genuine response.

The matrix row this scenario adds keeps the encrypted-transport column
honest: ``downgrade`` succeeds against ``dot_opportunistic`` (fallback is
the vulnerability) and fails against ``dot_strict`` (no plaintext to fall
back to — resolution fails closed and the attacker gets nothing).  Against
stacks with no encrypted transport at all the resolver was speaking
plaintext anyway and the scenario degenerates to the fragmentation race.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from ..defenses.stack import DefenseSpec
from ..dns.transport import STREAM_PORTS
from ..experiments.testbed import DEFAULT_ZONE
from ..netsim.network import Network
from ..netsim.packets import PROTO_TCP, IPPacket
from ..netsim.transport import DEFAULT_BACKLOG, FLAG_SYN, TCPSegment
from .attacker import DEFAULT_MALICIOUS_TTL
from .frag_poisoning import FragRaceWorld

#: TEST-NET-3: spoofed SYN sources.  Nothing is registered there, so the
#: nameserver's SYN-ACKs go nowhere and the half-open entries sit out their
#: full timeout — which is what makes small floods effective.
SYN_FLOOD_SOURCE_BLOCK = "203.0.113"
#: Ports the flood covers: every stream listener a nameserver might run.
DNS_STREAM_PORTS = tuple(STREAM_PORTS.values())


class SynFloodDowngrader:
    """Floods spoofed-source SYNs at a nameserver's stream listeners."""

    def __init__(self, network: Network, nameserver_address: str,
                 ports: Sequence[int] = DNS_STREAM_PORTS) -> None:
        self.network = network
        self.nameserver_address = nameserver_address
        self.ports = tuple(ports)
        self.syns_sent = 0

    def flood_once(self, syns_per_port: int) -> None:
        """One burst: ``syns_per_port`` spoofed SYNs at every stream port."""
        rng = self.network.simulator.rng
        for port in self.ports:
            for index in range(syns_per_port):
                source = f"{SYN_FLOOD_SOURCE_BLOCK}.{(index % 254) + 1}"
                segment = TCPSegment(
                    src_port=rng.randrange(1024, 0x10000),
                    dst_port=port,
                    seq=rng.getrandbits(32),
                    ack=0,
                    flags=FLAG_SYN,
                )
                self.network.inject(IPPacket(
                    src_ip=source,
                    dst_ip=self.nameserver_address,
                    ip_id=rng.randrange(0x10000),
                    payload=segment.encode(),
                    protocol=PROTO_TCP,
                    spoofed=True,
                ))
                self.syns_sent += 1
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("attack.syn_floods").inc()
            obs.metrics.counter("attack.syns_sent").inc(
                syns_per_port * len(self.ports))
            obs.trace.instant("attack.syn_flood", category="attack",
                              target=self.nameserver_address,
                              syns=syns_per_port * len(self.ports),
                              ports=len(self.ports))

    def sustain(self, syns_per_port: int, bursts: int, interval: float) -> None:
        """Schedule ``bursts`` refresh floods ``interval`` seconds apart."""
        simulator = self.network.simulator
        for burst in range(bursts):
            simulator.schedule(burst * interval,
                               lambda n=syns_per_port: self.flood_once(n))


@dataclass
class DowngradeConfig:
    """Configuration of the downgrade-then-poison scenario."""

    seed: int = 1
    zone: str = DEFAULT_ZONE
    benign_server_count: int = 60
    #: Records per benign response; enough that the (post-downgrade) UDP
    #: answer spills into the trailing fragments the attacker substitutes.
    records_per_response: int = 40
    nameserver_min_mtu: int = 548
    #: Spoofed SYNs per listener port per burst (``None`` = 4× the default
    #: backlog, comfortably keeping every slot occupied).
    syns_per_port: Optional[int] = None
    #: Backlog-refresh floods and their spacing; together they must cover
    #: the victim's connect attempt.
    flood_bursts: int = 3
    flood_interval: float = 5.0
    #: When the victim resolver's lookup is triggered.
    lookup_time: float = 1.0
    ipid_window: int = 16
    checksum_oracle: bool = True
    attacker_record_count: Optional[int] = None
    malicious_ttl: int = DEFAULT_MALICIOUS_TTL
    #: Extra countermeasures stacked on the victim resolver — the
    #: interesting ones here are ``encrypted_transport`` (strict: the
    #: downgrade fails closed) and ``encrypted_transport_opportunistic``
    #: (the downgrade works).
    defenses: DefenseSpec = ()
    #: Declarative fault plan injected into the network (see :mod:`repro.faults`).
    faults: tuple = ()
    latency: float = 0.01


@dataclass
class DowngradeResult:
    """Outcome of one downgrade-then-poison attempt."""

    cache_poisoned: bool
    #: Whether the resolver actually fell back to plaintext UDP.
    downgraded: bool
    encrypted_failures: int
    syns_sent: int
    #: SYNs the nameserver dropped at a full backlog (0 when it runs no
    #: stream listeners at all).
    syns_dropped: int
    planted_fragments: int
    poisoned_records_cached: int

    @property
    def attack_succeeded(self) -> bool:
        return self.cache_poisoned


class DowngradeScenario(FragRaceWorld):
    """SYN-flood downgrade of opportunistic encrypted DNS, then the classic
    fragmentation race — registry-runnable as ``downgrade``."""

    config: DowngradeConfig

    def __init__(self, config: Optional[DowngradeConfig] = None) -> None:
        super().__init__(config or DowngradeConfig(), "10.50.0.0/16")
        self.flooder = SynFloodDowngrader(self.network, self.nameserver.address)

    def _syns_per_port(self) -> int:
        if self.config.syns_per_port is not None:
            return self.config.syns_per_port
        return 4 * DEFAULT_BACKLOG

    def run(self) -> DowngradeResult:
        cfg = self.config
        # Phase 1: keep every stream-listener backlog full around the
        # victim's lookup; the first burst goes out immediately.
        self.flooder.sustain(self._syns_per_port(), cfg.flood_bursts,
                             cfg.flood_interval)
        # Phase 2: plant the spoofed trailing fragments once the flood's
        # SYN-ACK burst has settled the nameserver's IP-ID counter, then
        # trigger the lookup.
        self.simulator.schedule(
            max(cfg.lookup_time - 0.5, 0.0),
            lambda: self.poisoner.plant_fragments(self.expected_response()))
        self.simulator.schedule(cfg.lookup_time,
                                lambda: self.resolver.trigger_lookup(cfg.zone))
        self.simulator.run(until=cfg.lookup_time + 15.0)
        poisoned = self.poisoner.verify_poisoning()
        transport = self.resolver.upstream_transport
        report = self.poisoner.reports[-1] if self.poisoner.reports else None
        _, poisoned_cached = self.cached_records()
        return DowngradeResult(
            cache_poisoned=poisoned,
            downgraded=(transport.downgraded_queries > 0
                        if transport is not None else False),
            encrypted_failures=(transport.encrypted_failures
                                if transport is not None else 0),
            syns_sent=self.flooder.syns_sent,
            syns_dropped=(self.nameserver.tcp.syns_dropped
                          if self.nameserver._tcp is not None else 0),
            planted_fragments=report.planted_fragments if report else 0,
            poisoned_records_cached=poisoned_cached,
        )
