"""Synthetic populations for the DNS measurement study (§II).

The paper relies on a companion measurement ([3], "The Impact of DNS
Insecurity on Time") for three statistics:

* 16 of the 30 pool.ntp.org nameservers fragment DNS responses down to a
  548-byte MTU while not supporting DNSSEC;
* 90 % of resolvers (observed through an ad-network study) accept fragmented
  responses of some size, and 64 % accept even the minimum 68-byte MTU;
* for 14 % of the resolvers used by web clients, the attacker can trigger
  queries via SMTP servers or open resolvers.

We cannot re-run an Internet measurement, so the populations here are
synthetic: attribute distributions are seeded so that the *marginals* match
the published numbers above, while the study
code in :mod:`repro.measurement.nameserver_study` and
:mod:`repro.measurement.resolver_study` computes the statistics from the
population exactly the way a measurement script would (probe, classify,
aggregate), so the analysis pipeline is exercised end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

#: The MTU the companion study probed pool.ntp.org nameservers down to.
STUDY_MTU_THRESHOLD = 548
#: The smallest fragment size probed at resolvers (IPv4 minimum MTU).
MINIMUM_FRAGMENT_MTU = 68

#: Published marginals reproduced by the default populations.
PAPER_NAMESERVER_TOTAL = 30
PAPER_NAMESERVERS_FRAGMENTING = 16
PAPER_RESOLVER_ACCEPT_ANY_FRACTION = 0.90
PAPER_RESOLVER_ACCEPT_MINIMUM_FRACTION = 0.64
PAPER_RESOLVER_TRIGGERABLE_FRACTION = 0.14


@dataclass(frozen=True)
class NameserverProfile:
    """Measured properties of one pool.ntp.org authoritative nameserver."""

    address: str
    #: Smallest MTU the server is willing to fragment responses down to
    #: (1500 means "never fragments below a full Ethernet frame").
    min_fragmentation_mtu: int
    supports_dnssec: bool

    def fragments_to(self, mtu: int) -> bool:
        """Would this server fragment a large response at path MTU ``mtu``?"""
        return self.min_fragmentation_mtu <= mtu

    @property
    def vulnerable_to_fragmentation_poisoning(self) -> bool:
        """The §II.A criterion: fragments to the study MTU and no DNSSEC."""
        return self.fragments_to(STUDY_MTU_THRESHOLD) and not self.supports_dnssec


@dataclass(frozen=True)
class ResolverProfile:
    """Measured properties of one recursive resolver in the wild."""

    identifier: str
    #: Smallest fragment MTU the resolver accepts; ``None`` means the
    #: resolver rejects fragmented responses entirely.
    min_accepted_fragment_mtu: Optional[int]
    #: Whether an attacker can make the resolver issue a query via an SMTP
    #: server sharing it.
    triggerable_via_smtp: bool
    #: Whether the resolver answers queries from arbitrary sources.
    open_resolver: bool

    @property
    def accepts_any_fragments(self) -> bool:
        return self.min_accepted_fragment_mtu is not None

    def accepts_fragment_mtu(self, mtu: int) -> bool:
        return self.accepts_any_fragments and mtu >= self.min_accepted_fragment_mtu

    @property
    def accepts_minimum_fragments(self) -> bool:
        return self.accepts_fragment_mtu(MINIMUM_FRAGMENT_MTU)

    @property
    def externally_triggerable(self) -> bool:
        """Can the attacker trigger queries through a third party (§II.A)?"""
        return self.triggerable_via_smtp or self.open_resolver


def generate_nameserver_population(seed: int = 0,
                                   total: int = PAPER_NAMESERVER_TOTAL,
                                   fragmenting: int = PAPER_NAMESERVERS_FRAGMENTING,
                                   rng: Optional[random.Random] = None,
                                   ) -> list[NameserverProfile]:
    """Build a nameserver population matching the published 16-of-30 marginal.

    ``rng`` lets experiment harnesses supply their own generator so population
    studies compose with experiment-level seeding; when omitted, a locally
    seeded generator preserves the historical default-seed populations.
    """
    if fragmenting > total:
        raise ValueError("fragmenting count cannot exceed the population size")
    if rng is None:
        rng = random.Random(seed)
    profiles: list[NameserverProfile] = []
    indices = list(range(total))
    rng.shuffle(indices)
    fragmenting_set = set(indices[:fragmenting])
    for index in range(total):
        address = f"192.0.2.{index + 1}"
        if index in fragmenting_set:
            # Fragmenting servers in the study accepted the 548-byte probe;
            # give them a minimum MTU at or below it, and no DNSSEC.
            min_mtu = rng.choice([548, 512, 296, 68])
            dnssec = False
        else:
            min_mtu = rng.choice([1500, 1400, 1280])
            dnssec = rng.random() < 0.3
        profiles.append(NameserverProfile(address=address,
                                          min_fragmentation_mtu=min_mtu,
                                          supports_dnssec=dnssec))
    return profiles


def generate_resolver_population(seed: int = 0, total: int = 5000,
                                 accept_any_fraction: float = PAPER_RESOLVER_ACCEPT_ANY_FRACTION,
                                 accept_minimum_fraction: float = PAPER_RESOLVER_ACCEPT_MINIMUM_FRACTION,
                                 triggerable_fraction: float = PAPER_RESOLVER_TRIGGERABLE_FRACTION,
                                 rng: Optional[random.Random] = None,
                                 ) -> list[ResolverProfile]:
    """Build a resolver population matching the published 90 % / 64 % / 14 % marginals.

    The fractions are enforced by construction (deterministic quotas over a
    shuffled population) rather than by sampling, so small populations still
    reproduce the marginals exactly up to rounding.  As with
    :func:`generate_nameserver_population`, an injected ``rng`` takes
    precedence over ``seed``.
    """
    if not 0 <= accept_minimum_fraction <= accept_any_fraction <= 1:
        raise ValueError("fractions must satisfy 0 <= minimum <= any <= 1")
    if rng is None:
        rng = random.Random(seed)
    indices = list(range(total))
    rng.shuffle(indices)
    accept_any_count = int(round(accept_any_fraction * total))
    accept_minimum_count = int(round(accept_minimum_fraction * total))
    accept_any = set(indices[:accept_any_count])
    accept_minimum = set(indices[:accept_minimum_count])

    trigger_order = list(range(total))
    rng.shuffle(trigger_order)
    triggerable = set(trigger_order[: int(round(triggerable_fraction * total))])

    profiles: list[ResolverProfile] = []
    for index in range(total):
        if index in accept_minimum:
            min_mtu: Optional[int] = MINIMUM_FRAGMENT_MTU
        elif index in accept_any:
            min_mtu = rng.choice([256, 296, 512, 548, 1280])
        else:
            min_mtu = None
        is_triggerable = index in triggerable
        via_smtp = is_triggerable and rng.random() < 0.6
        is_open = is_triggerable and not via_smtp
        profiles.append(ResolverProfile(
            identifier=f"resolver-{index}",
            min_accepted_fragment_mtu=min_mtu,
            triggerable_via_smtp=via_smtp,
            open_resolver=is_open,
        ))
    return profiles
