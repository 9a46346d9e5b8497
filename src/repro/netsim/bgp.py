"""A deliberately small BGP model: longest-prefix-match routing and hijacks.

The paper lists two vectors for the DNS cache poisoning that seeds the
Chronos pool attack: IPv4 defragmentation poisoning and BGP prefix hijacking
("BGP hijacking places the attacker in a MitM position for the victim
network").  For the reproduction we only need the *consequence* of a hijack —
packets addressed to the victim prefix are delivered to the hijacker instead
of (or before) the legitimate owner — not BGP's path-vector mechanics.

The routing table maps prefixes to the simulated host that currently receives
traffic for them.  Announcing a more-specific prefix wins by longest-prefix
match, exactly the property real-world hijacks (e.g. the MyEtherWallet /
Amazon Route 53 incident cited by the paper) exploit; a hijack is simply an
announcement the hijacker later withdraws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .addresses import Prefix


@dataclass(frozen=True)
class RouteAnnouncement:
    """One announcement: a prefix claimed by an origin (host address)."""

    prefix: Prefix
    origin: str


@dataclass
class RoutingTable:
    """Longest-prefix-match forwarding state shared by the simulated network."""

    announcements: list[RouteAnnouncement] = field(default_factory=list)

    def announce(self, prefix: str, origin: str) -> None:
        """Add an announcement of ``prefix`` by ``origin``."""
        self.announcements.append(RouteAnnouncement(Prefix.parse(prefix), origin))

    def withdraw(self, prefix: str, origin: str) -> None:
        """Remove announcements of ``prefix`` by ``origin`` (no-op if absent)."""
        target = Prefix.parse(prefix)
        self.announcements = [
            a for a in self.announcements if not (a.prefix == target and a.origin == origin)
        ]

    def lookup(self, address: str) -> Optional[str]:
        """Return the origin that currently receives traffic for ``address``.

        Longest prefix wins; on a tie the most recent announcement wins,
        modelling the propagation advantage a fresh (hijack) announcement has
        over an established route in the neighbourhood that accepted it.
        """
        best: Optional[RouteAnnouncement] = None
        best_index = -1
        for index, announcement in enumerate(self.announcements):
            if not announcement.prefix.contains(address):
                continue
            if best is None or announcement.prefix.length > best.prefix.length or (
                announcement.prefix.length == best.prefix.length and index > best_index
            ):
                best = announcement
                best_index = index
        return best.origin if best else None
