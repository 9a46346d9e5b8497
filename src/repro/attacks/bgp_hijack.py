"""DNS cache poisoning via BGP prefix hijacking.

One of the two poisoning vectors the paper lists (§II).  The attacker
announces a more-specific prefix covering the pool.ntp.org nameserver; while
the hijack is active, the victim resolver's queries are delivered to the
attacker, who answers with its malicious record set while spoofing the
legitimate nameserver's source address.  From the resolver's point of view
everything checks out — transaction id, port, question, source address — and
the forged records (many addresses, huge TTL) enter the cache.
:meth:`BGPHijackScenario.run` returns the ``bgp_hijack`` registry metrics dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..defenses.stack import DefenseSpec, defense_rejections
from ..dns.records import RecordType
from ..experiments.registry import OPT_IN
from ..experiments.testbed import DEFAULT_ZONE, build_testbed, testbed_config
from ..netsim.network import Network
from .attacker import DEFAULT_MALICIOUS_TTL, AttackerInfrastructure, ImpersonatingNameserver


class BGPHijackPoisoner:
    """Poison a resolver's cache for a zone by hijacking its nameserver prefix."""

    def __init__(self, network: Network, attacker: AttackerInfrastructure,
                 target_nameserver: str,
                 attacker_nameserver_address: str = "198.51.100.253") -> None:
        self.network = network
        self.attacker = attacker
        self.target_nameserver = target_nameserver
        self._active = False
        self.nameserver = ImpersonatingNameserver(
            network, attacker_nameserver_address, impersonated_address=target_nameserver,
            attacker=attacker)

    def hijack_prefix(self) -> str:
        """The more-specific prefix (/32 here) covering the target nameserver."""
        return f"{self.target_nameserver}/32"

    def announce(self) -> None:
        """Start the hijack: divert the nameserver's traffic to the attacker."""
        if self._active:
            return
        if not self.attacker.can_hijack_bgp:
            raise PermissionError("attacker model does not include BGP hijacking")
        self.network.routing_table.announce(self.hijack_prefix(), self.nameserver.address)
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


@dataclass
class BGPHijackConfig:
    """Configuration of the standalone hijack-poisoning scenario."""

    seed: int = 1
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
    faults: tuple = field(default=(), metadata=OPT_IN)


class BGPHijackScenario:
    """The §II prefix-hijack vector as a self-contained, registry-runnable
    scenario: announce, trigger one resolver lookup, inspect the cache."""

    def __init__(self, config: Optional[BGPHijackConfig] = None) -> None:
        self.config = config or BGPHijackConfig()
        self.testbed = build_testbed(
            testbed_config(self.config, benign_address_block="10.30.0.0/16"))
        self.simulator = self.testbed.simulator
        self.nameserver = self.testbed.nameserver
        self.resolver = self.testbed.resolver
        self.attacker = self.testbed.attacker
        self.hijacker = self.testbed.hijacker

    def run(self) -> dict[str, Any]:
        """Returns the ``bgp_hijack`` registry metrics dict."""
        cfg = self.config
        if cfg.hijack_duration > 0:
            self.hijacker.schedule_window(cfg.hijack_start, cfg.hijack_duration)
        self.simulator.schedule(cfg.lookup_time,
                                lambda: self.resolver.trigger_lookup(DEFAULT_ZONE))
        horizon = cfg.hijack_start + cfg.hijack_duration + cfg.lookup_time + 30.0
        self.simulator.run(until=horizon)
        entry = self.resolver.cache.peek(DEFAULT_ZONE, RecordType.A)
        _, malicious_cached = self.attacker.cached_records(self.resolver, DEFAULT_ZONE)
        return {
            "attack_succeeded": malicious_cached > 0,
            "defense_rejections": defense_rejections(self.resolver.defenses),
            "cache_poisoned": malicious_cached > 0,
            "malicious_records_cached": malicious_cached,
            "cached_ttl": entry.ttl if entry is not None else None,
            # Queries the real nameserver saw (0 while the hijack diverts traffic).
            "legitimate_queries_answered": self.nameserver.queries_received,
            "hijacked_queries_answered": self.hijacker.nameserver.hijacked_queries_answered,
        }
