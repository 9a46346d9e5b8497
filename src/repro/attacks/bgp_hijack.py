"""DNS cache poisoning via BGP prefix hijacking.

One of the two poisoning vectors the paper lists (§II).  The attacker
announces a more-specific prefix covering the pool.ntp.org nameserver; while
the hijack is active, the victim resolver's queries are delivered to the
attacker, who answers with its malicious record set while spoofing the
legitimate nameserver's source address.  From the resolver's point of view
everything checks out — transaction id, port, question, source address — and
the forged records (many addresses, huge TTL) enter the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..defenses.stack import DefenseSpec
from ..dns.records import RecordType
from ..dns.resolver import RecursiveResolver
from ..experiments.testbed import DEFAULT_ZONE, build_testbed, testbed_config
from ..netsim.network import Network
from .attacker import DEFAULT_MALICIOUS_TTL, AttackerInfrastructure, ImpersonatingNameserver


@dataclass
class HijackWindow:
    """Record of one hijack interval for experiment reporting."""

    announced_at: float
    withdrawn_at: Optional[float] = None


class BGPHijackPoisoner:
    """Poison a resolver's cache for a zone by hijacking its nameserver prefix."""

    def __init__(self, network: Network, attacker: AttackerInfrastructure,
                 target_nameserver: str, zone_name: str = "pool.ntp.org",
                 attacker_nameserver_address: str = "198.51.100.253") -> None:
        self.network = network
        self.attacker = attacker
        self.target_nameserver = target_nameserver
        self.zone_name = zone_name
        self.windows: list[HijackWindow] = []
        self._active = False
        records = attacker.malicious_answer_records(zone_name)
        self.nameserver = ImpersonatingNameserver(
            network,
            attacker_nameserver_address,
            impersonated_address=target_nameserver,
            zone_name=zone_name,
            records=records,
        )
        attacker.nameserver = self.nameserver

    @property
    def active(self) -> bool:
        return self._active

    def hijack_prefix(self) -> str:
        """The more-specific prefix (/32 here) covering the target nameserver."""
        return f"{self.target_nameserver}/32"

    def announce(self) -> None:
        """Start the hijack: divert the nameserver's traffic to the attacker."""
        if self._active:
            return
        if not self.attacker.capabilities.can_hijack_bgp:
            raise PermissionError("attacker model does not include BGP hijacking")
        self.network.routing_table.announce(self.hijack_prefix(), self.nameserver.address,
                                            legitimate=False)
        self.windows.append(HijackWindow(announced_at=self.network.simulator.now))
        self._active = True
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("attack.bgp_hijacks").inc()
            obs.trace.instant("attack.bgp_hijack", category="attack",
                              prefix=self.hijack_prefix(),
                              target=self.target_nameserver)

    def withdraw(self) -> None:
        """Stop the hijack and restore normal routing."""
        if not self._active:
            return
        self.network.routing_table.withdraw(self.hijack_prefix(), self.nameserver.address)
        self.windows[-1].withdrawn_at = self.network.simulator.now
        self._active = False

    def schedule_window(self, start_in: float, duration: float) -> None:
        """Announce after ``start_in`` seconds and withdraw ``duration`` later.

        Used by the experiments to land the hijack exactly around the k-th
        pool-generation query (E1/E2) or to hold it for a full 24 hours
        (the §V residual attack, E8).
        """
        simulator = self.network.simulator
        simulator.schedule(start_in, self.announce)
        simulator.schedule(start_in + duration, self.withdraw)

    def poisoning_succeeded(self, resolver: RecursiveResolver) -> bool:
        """Whether the resolver currently caches attacker addresses for the zone."""
        entry = resolver.cache.peek(self.zone_name, RecordType.A)
        if entry is None:
            return False
        attacker_addresses = set(self.attacker.ntp_addresses)
        return any(record.rdata in attacker_addresses for record in entry.records)


@dataclass
class BGPHijackConfig:
    """Configuration of the standalone hijack-poisoning scenario."""

    seed: int = 1
    zone: str = DEFAULT_ZONE
    benign_server_count: int = 60
    #: Malicious A records injected (``None`` = the 89 of §IV).
    attacker_record_count: Optional[int] = None
    malicious_ttl: int = DEFAULT_MALICIOUS_TTL
    #: When the more-specific announcement goes out (seconds from start).
    hijack_start: float = 0.0
    #: How long the hijack stays active; 0 disables the hijack entirely.
    hijack_duration: float = 30.0
    #: When the victim resolver's lookup is triggered.
    lookup_time: float = 5.0
    #: Extra countermeasures stacked on the victim resolver.
    defenses: DefenseSpec = ()
    #: Declarative fault plan injected into the network (see :mod:`repro.faults`).
    faults: tuple = ()
    latency: float = 0.01


@dataclass
class BGPHijackResult:
    """Outcome of one hijack-poisoning attempt."""

    cache_poisoned: bool
    malicious_records_cached: int
    cached_ttl: Optional[int]
    #: Queries the real nameserver saw (0 while the hijack diverts traffic).
    legitimate_queries_answered: int
    hijacked_queries_answered: int

    @property
    def attack_succeeded(self) -> bool:
        return self.cache_poisoned


class BGPHijackScenario:
    """The §II prefix-hijack vector as a self-contained, registry-runnable
    scenario: announce, trigger one resolver lookup, inspect the cache."""

    def __init__(self, config: Optional[BGPHijackConfig] = None) -> None:
        self.config = config or BGPHijackConfig()
        self.testbed = build_testbed(
            testbed_config(self.config, benign_address_block="10.30.0.0/16"))
        self.simulator = self.testbed.simulator
        self.network = self.testbed.network
        self.nameserver = self.testbed.nameserver
        self.resolver = self.testbed.resolver
        self.attacker = self.testbed.attacker
        self.hijacker = self.testbed.hijacker

    def run(self) -> BGPHijackResult:
        cfg = self.config
        if cfg.hijack_duration > 0:
            self.hijacker.schedule_window(cfg.hijack_start, cfg.hijack_duration)
        self.simulator.schedule(cfg.lookup_time,
                                lambda: self.resolver.trigger_lookup(cfg.zone))
        horizon = cfg.hijack_start + cfg.hijack_duration + cfg.lookup_time + 30.0
        self.simulator.run(until=horizon)
        entry = self.resolver.cache.peek(cfg.zone, RecordType.A)
        attacker_addresses = set(self.attacker.ntp_addresses)
        cached = list(entry.records) if entry is not None else []
        malicious_cached = sum(1 for record in cached
                               if record.rdata in attacker_addresses)
        return BGPHijackResult(
            cache_poisoned=self.hijacker.poisoning_succeeded(self.resolver),
            malicious_records_cached=malicious_cached,
            cached_ttl=entry.ttl if entry is not None else None,
            legitimate_queries_answered=self.nameserver.queries_received,
            hijacked_queries_answered=self.hijacker.nameserver.hijacked_queries_answered,
        )
