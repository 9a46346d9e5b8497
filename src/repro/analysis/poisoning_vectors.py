"""Experiment E7: the two poisoning vectors lead to the same pool compromise.

The paper stresses that *how* the cache is poisoned — BGP hijack or
defragmentation-cache injection — is irrelevant to the attack on Chronos.
This analysis (a) runs both vectors mechanically and checks they produce a
poisoned cache entry, and (b) sweeps the fragmentation vector's feasibility
over nameserver MTU behaviour and resolver fragment acceptance, using the
same condition model as the measurement study.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..attacks.frag_poisoning import (
    FragmentationAttackConditions,
    fragmentation_attack_success_probability,
)
from ..dns.message import response_size_for_a_records
from ..dns.nameserver import DEFAULT_ZONE
from ..measurement.population import NameserverProfile, ResolverProfile


@dataclass(frozen=True)
class VectorFeasibilityRow:
    """Feasibility of the fragmentation vector for one nameserver/resolver pair."""

    nameserver_min_mtu: int
    nameserver_has_dnssec: bool
    resolver_accepts_fragments: bool
    response_size: int
    feasible: bool
    success_probability: float

    @staticmethod
    def header() -> str:
        return (f"{'ns min MTU':>10} {'DNSSEC':>7} {'frags ok':>9} {'resp B':>7} "
                f"{'feasible':>9} {'P(success)':>11}")

    def formatted(self) -> str:
        return (f"{self.nameserver_min_mtu:>10} {str(self.nameserver_has_dnssec):>7} "
                f"{str(self.resolver_accepts_fragments):>9} {self.response_size:>7} "
                f"{str(self.feasible):>9} {self.success_probability:>11.3f}")


def feasibility_row(nameserver: NameserverProfile, resolver: ResolverProfile,
                    probe_record_count: int = 40,
                    qname: str = DEFAULT_ZONE) -> VectorFeasibilityRow:
    """Evaluate the fragmentation vector for one measured pair."""
    response_size = response_size_for_a_records(qname, probe_record_count)
    conditions = FragmentationAttackConditions(
        nameserver_min_mtu=nameserver.min_fragmentation_mtu,
        nameserver_has_dnssec=nameserver.supports_dnssec,
        resolver_accepts_fragments=resolver.accepts_any_fragments,
        resolver_min_fragment_mtu=resolver.min_accepted_fragment_mtu or 1500,
        response_size=response_size,
    )
    return VectorFeasibilityRow(
        nameserver_min_mtu=nameserver.min_fragmentation_mtu,
        nameserver_has_dnssec=nameserver.supports_dnssec,
        resolver_accepts_fragments=resolver.accepts_any_fragments,
        response_size=response_size,
        feasible=conditions.feasible,
        success_probability=fragmentation_attack_success_probability(conditions),
    )


def mtu_sweep(mtus: Sequence[int] = (1500, 1400, 1280, 548, 296, 68),
              probe_record_count: int = 40,
              qname: str = DEFAULT_ZONE) -> list[VectorFeasibilityRow]:
    """Feasibility of the fragmentation vector versus nameserver MTU behaviour."""
    resolver = ResolverProfile(identifier="victim", min_accepted_fragment_mtu=68,
                               triggerable_via_smtp=True, open_resolver=False)
    rows = []
    for mtu in mtus:
        nameserver = NameserverProfile(address="192.0.2.53",
                                       min_fragmentation_mtu=mtu,
                                       supports_dnssec=False)
        rows.append(feasibility_row(nameserver, resolver,
                                    probe_record_count=probe_record_count, qname=qname))
    return rows


def vulnerable_pair_fraction(nameservers: Sequence[NameserverProfile],
                             resolvers: Sequence[ResolverProfile],
                             probe_record_count: int = 40) -> float:
    """Fraction of (nameserver, resolver) pairs where the vector is feasible."""
    if not nameservers or not resolvers:
        return 0.0
    feasible = 0
    total = 0
    for nameserver in nameservers:
        for resolver in resolvers:
            total += 1
            row = feasibility_row(nameserver, resolver, probe_record_count=probe_record_count)
            if row.feasible:
                feasible += 1
    return feasible / total
