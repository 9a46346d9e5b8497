"""Fragmentation/DNSSEC study of pool.ntp.org nameservers (§II.A statistics).

The study proceeds the way the real measurement did: for every nameserver,
probe whether a large response is fragmented when the path MTU is lowered to
the study threshold (548 bytes), and whether the zone is DNSSEC-signed; then
aggregate.  The probe itself runs against either a static
:class:`repro.measurement.population.NameserverProfile` or a live simulated
nameserver whose behaviour is configured from that profile, so the same
classification code serves the synthetic study and the packet-level
experiments.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..attacks.frag_poisoning import FragmentationAttackConditions
from ..dns.message import response_size_for_a_records
from ..dns.nameserver import DEFAULT_ZONE
from .population import STUDY_MTU_THRESHOLD, NameserverProfile


@dataclass(frozen=True)
class NameserverProbeResult:
    """Outcome of probing one nameserver."""

    address: str
    fragments_at_study_mtu: bool
    supports_dnssec: bool
    #: Size of the response used for the probe (bytes).
    probe_response_size: int

    @property
    def usable_for_fragmentation_poisoning(self) -> bool:
        return self.fragments_at_study_mtu and not self.supports_dnssec


@dataclass
class NameserverStudyReport:
    """Aggregate statistics over a nameserver population."""

    total: int
    fragmenting_without_dnssec: int
    fragmenting: int
    dnssec_enabled: int
    probes: list[NameserverProbeResult] = field(default_factory=list)

    def summary_row(self) -> str:
        """The row the paper reports: "16 out of 30 nameservers ..."."""
        return (f"{self.fragmenting_without_dnssec} out of {self.total} nameservers "
                f"fragment DNS responses down to an MTU of {STUDY_MTU_THRESHOLD} bytes "
                f"while not supporting DNSSEC")


def probe_nameserver(profile: NameserverProfile,
                     probe_record_count: int = 40,
                     qname: str = DEFAULT_ZONE,
                     study_mtu: int = STUDY_MTU_THRESHOLD) -> NameserverProbeResult:
    """Probe one nameserver profile the way the measurement script would.

    A response large enough to exceed the study MTU is requested; the server
    "fragments at the study MTU" when it is willing to lower its effective
    MTU to that value (rather than refusing / truncating).
    """
    response_size = response_size_for_a_records(qname, probe_record_count)
    conditions = FragmentationAttackConditions(
        nameserver_min_mtu=profile.min_fragmentation_mtu,
        nameserver_has_dnssec=profile.supports_dnssec,
        resolver_accepts_fragments=True,
        response_size=response_size,
    )
    fragments = profile.fragments_to(study_mtu) and conditions.response_fragments()
    return NameserverProbeResult(
        address=profile.address,
        fragments_at_study_mtu=fragments,
        supports_dnssec=profile.supports_dnssec,
        probe_response_size=response_size,
    )


def run_nameserver_study(population: Sequence[NameserverProfile],
                         probe_record_count: int = 40,
                         study_mtu: int = STUDY_MTU_THRESHOLD) -> NameserverStudyReport:
    """Probe every nameserver in the population and aggregate the statistics."""
    probes = [probe_nameserver(profile, probe_record_count=probe_record_count,
                               study_mtu=study_mtu)
              for profile in population]
    return NameserverStudyReport(
        total=len(probes),
        fragmenting_without_dnssec=sum(1 for p in probes if p.usable_for_fragmentation_poisoning),
        fragmenting=sum(1 for p in probes if p.fragments_at_study_mtu),
        dnssec_enabled=sum(1 for p in probes if p.supports_dnssec),
        probes=probes,
    )
