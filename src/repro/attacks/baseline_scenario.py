"""Baseline scenario: the DNS attack against a *traditional* NTP client.

Used by experiments E6 and E9 to compare the paper's headline claim — that
the DNS route makes Chronos easier to attack than plain NTP — in both
directions:

* the traditional client gives the attacker exactly **one** DNS query to
  poison (its start-up resolution), but a success hands the attacker **all**
  of the client's upstream servers;
* Chronos gives the attacker up to **24** queries, any one of the first 12
  sufficing for a two-thirds pool majority.

The scenario mirrors :class:`repro.attacks.chronos_pool_attack.ChronosPoolAttackScenario`
but drives a :class:`repro.ntp.client.TraditionalNTPClient`; its ``run``
returns the ``traditional_client_attack`` registry metrics dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.security_analysis import shift_reached
from ..defenses.stack import DefenseSpec, defense_rejections
from ..experiments.registry import OPT_IN
from ..experiments.testbed import DEFAULT_ZONE, Testbed, build_testbed, testbed_config
from ..ntp.client import TraditionalNTPClient


@dataclass
class BaselineAttackConfig:
    """Configuration of the traditional-client attack scenario."""

    seed: int = 1
    benign_server_count: int = 50
    #: Whether the attacker manages to poison the client's single start-up
    #: DNS resolution (the one race it gets).
    poison_startup_lookup: bool = True
    #: Number of malicious servers the attacker advertises; the traditional
    #: client only uses the first ``max_servers`` of them anyway.
    attacker_record_count: int = 4
    malicious_ttl: int = 2 * 86400
    max_servers: int = 4
    #: Extra countermeasures stacked on the resolver and the NTP sampling.
    defenses: DefenseSpec = ()
    #: Declarative fault plan injected into the network (see :mod:`repro.faults`).
    faults: tuple = field(default=(), metadata=OPT_IN)
    #: The shift the attacker's servers serve, and how many polls the run lasts.
    target_shift: float = 600.0
    poll_rounds: int = 4


class TraditionalClientAttackScenario:
    """DNS poisoning followed by time shifting against a plain NTP client."""

    def __init__(self, config: Optional[BaselineAttackConfig] = None) -> None:
        self.config = config or BaselineAttackConfig()
        self.testbed = build_testbed(
            testbed_config(self.config, benign_address_block="10.20.0.0/16",
                           attacker_nameserver_address="198.51.100.254"),
            victim_factory=self._build_client,
        )
        self.simulator = self.testbed.simulator
        self.resolver = self.testbed.resolver
        self.client: TraditionalNTPClient = self.testbed.victim
        self.attacker = self.testbed.attacker
        self.hijacker = self.testbed.hijacker

    def _build_client(self, testbed: Testbed) -> TraditionalNTPClient:
        return TraditionalNTPClient(
            testbed.network,
            "192.0.2.110",
            resolver_address=testbed.resolver.address,
            hostname=DEFAULT_ZONE,
            max_servers=self.config.max_servers,
            defenses=testbed.defenses,
        )

    def run(self) -> dict[str, Any]:
        """Run the start-up resolution (poisoned or not) and ``poll_rounds`` polls.

        Returns the ``traditional_client_attack`` registry metrics dict.
        """
        target_shift = self.config.target_shift
        if self.config.poison_startup_lookup:
            # The attacker wins the single race: the hijack is active exactly
            # when the client resolves the pool name at start-up.
            self.hijacker.announce()
            self.simulator.schedule(30.0, self.hijacker.withdraw)
        self.attacker.set_time_shift(target_shift)
        self.client.start()
        self.simulator.run_for(self.config.poll_rounds * self.client.poll_interval + 30.0)
        malicious = set(self.attacker.ntp_addresses)
        return {
            "attack_succeeded": shift_reached(self.client.clock.error, target_shift),
            "defense_rejections": defense_rejections(self.resolver.defenses,
                                                     self.testbed.defenses),
            "achieved_shift": self.client.clock.error,
            "servers_used": len(self.client.servers),
            "malicious_servers_used": sum(1 for server in self.client.servers
                                          if server in malicious),
            "polls_run": len(self.client.poll_history),
        }
