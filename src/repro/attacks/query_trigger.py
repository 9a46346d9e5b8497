"""Third-party DNS query triggering.

The paper (§II.A) observes that resolvers are typically *shared*: the
attacker does not need the Chronos client itself to issue the pool.ntp.org
query at a convenient moment — it can make some other system that uses the
same resolver look the name up (the companion study found 14 % of web-client
resolvers reachable this way via SMTP servers or open resolvers).  Triggering
matters for the fragmentation vector, where the attacker wants to plant
spoofed fragments immediately before a query it knows is coming.  This
module models the SMTP avenue: the attacker sends a port-25 datagram naming
the domain, and :class:`SMTPTriggerServer` looks it up through the shared
resolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dns.resolver import DNSStub
from ..netsim.network import Host, Network
from ..netsim.packets import UDPDatagram

SMTP_PORT = 25


@dataclass
class TriggerRecord:
    """One triggered lookup, for reporting."""

    via: str
    name: str
    triggered_at: float


class SMTPTriggerServer(Host):
    """A mail server that resolves the domain of any envelope it receives.

    The attacker sends an e-mail whose recipient domain is ``pool.ntp.org``
    (or embeds the name in a way the MTA resolves); the MTA's lookup goes
    through the shared resolver, giving the attacker a query to race.
    """

    def __init__(self, network: Network, address: str, resolver_address: str,
                 name: Optional[str] = None) -> None:
        super().__init__(network, address, name=name or f"smtp-{address}")
        self.dns = DNSStub(self, resolver_address)
        self.triggers: list[TriggerRecord] = []

    def handle_datagram(self, datagram: UDPDatagram) -> None:
        if self.dns.handle_datagram(datagram):
            return
        if datagram.dst_port != SMTP_PORT:
            return
        domain = datagram.payload.decode("ascii", errors="ignore").strip()
        if not domain:
            return
        self.triggers.append(TriggerRecord(via="smtp", name=domain,
                                           triggered_at=self.network.simulator.now))
        self.dns.lookup(domain, lambda addresses: None)

