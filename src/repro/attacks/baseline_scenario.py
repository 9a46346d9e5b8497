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
but drives a :class:`repro.ntp.client.TraditionalNTPClient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..defenses.stack import DefenseSpec
from ..dns.nameserver import POOL_NTP_ORG_TTL, POOL_RECORDS_PER_RESPONSE
from ..experiments.testbed import Testbed, build_testbed, testbed_config
from ..ntp.client import TraditionalNTPClient


@dataclass
class BaselineAttackConfig:
    """Configuration of the traditional-client attack scenario."""

    seed: int = 1
    zone: str = "pool.ntp.org"
    benign_server_count: int = 50
    records_per_response: int = POOL_RECORDS_PER_RESPONSE
    benign_ttl: int = POOL_NTP_ORG_TTL
    #: Whether the attacker manages to poison the client's single start-up
    #: DNS resolution (the one race it gets).
    poison_startup_lookup: bool = True
    #: Number of malicious servers the attacker advertises; the traditional
    #: client only uses the first ``max_servers`` of them anyway.
    attacker_record_count: int = 4
    malicious_ttl: int = 2 * 86400
    poll_interval: float = 64.0
    max_servers: int = 4
    #: Extra countermeasures stacked on the resolver and the NTP sampling.
    defenses: DefenseSpec = ()
    #: Declarative fault plan injected into the network (see :mod:`repro.faults`).
    faults: tuple = ()
    latency: float = 0.01


@dataclass
class BaselineAttackResult:
    """Outcome of the baseline attack."""

    servers_used: list[str]
    malicious_servers_used: int
    target_shift: float
    achieved_error: float
    polls_run: int

    @property
    def attack_succeeded(self) -> bool:
        if self.target_shift == 0:
            return False
        return abs(self.achieved_error) >= abs(self.target_shift) / 2


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
        self.network = self.testbed.network
        self.benign_servers = self.testbed.benign_servers
        self.nameserver = self.testbed.nameserver
        self.resolver = self.testbed.resolver
        self.client: TraditionalNTPClient = self.testbed.victim
        self.attacker = self.testbed.attacker
        self.hijacker = self.testbed.hijacker

    def _build_client(self, testbed: Testbed) -> TraditionalNTPClient:
        return TraditionalNTPClient(
            testbed.network,
            "192.0.2.110",
            resolver_address=testbed.resolver.address,
            hostname=self.config.zone,
            max_servers=self.config.max_servers,
            poll_interval=self.config.poll_interval,
            defenses=testbed.defenses,
        )

    def run(self, target_shift: float, poll_rounds: int = 4) -> BaselineAttackResult:
        """Run the start-up resolution (poisoned or not) and ``poll_rounds`` polls."""
        if self.config.poison_startup_lookup:
            # The attacker wins the single race: the hijack is active exactly
            # when the client resolves the pool name at start-up.
            self.hijacker.announce()
            self.simulator.schedule(30.0, self.hijacker.withdraw)
        self.attacker.set_time_shift(target_shift)
        self.client.start()
        self.simulator.run_for(poll_rounds * self.config.poll_interval + 30.0)
        malicious = set(self.attacker.ntp_addresses)
        used = list(self.client.servers)
        return BaselineAttackResult(
            servers_used=used,
            malicious_servers_used=sum(1 for server in used if server in malicious),
            target_shift=target_shift,
            achieved_error=self.client.clock.error,
            polls_run=len(self.client.poll_history),
        )
