"""DNS cache poisoning via IPv4 defragmentation-cache injection.

The second poisoning vector the paper lists (§II.A), following Herzberg &
Shulman's "Fragmentation Considered Poisonous".  The attacker:

1. chooses a nameserver that fragments its responses (the companion
   measurement [3] found 16 of 30 pool.ntp.org nameservers willing to
   fragment down to a 548-byte MTU, none of them serving DNSSEC);
2. predicts the nameserver's IPv4 identification value (many stacks use
   sequential IP-IDs) and plants spoofed *second* fragments — one per
   candidate IP-ID — in the victim resolver's reassembly buffer;
3. triggers the DNS query (directly, or via a third party such as an SMTP
   server sharing the resolver — see :mod:`repro.attacks.query_trigger`);
4. the genuine first fragment (carrying the UDP/DNS headers, transaction id
   and port) is reassembled with the attacker's tail, so all of the
   resolver's off-path defences pass while the answer records — and their
   TTL — are the attacker's.

The splice is performed on real wire bytes: the attacker forges a complete
response with the same question and record layout as the benign one, encodes
it, and injects the bytes beyond the fragmentation boundary.  Because A
records have a fixed encoded size, the spliced message parses correctly and
differs from the benign response exactly in the records (and TTLs) that lie
in the trailing fragment(s).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..defenses.hardening import DNSCookies
from ..defenses.stack import DefenseSpec
from ..dns.message import DNSMessage
from ..dns.nameserver import DNS_PORT, POOL_NTP_ORG_TTL, PoolNTPNameserver
from ..dns.records import RecordType, a_record, signature_record
from ..dns.resolver import RecursiveResolver, ResolverPolicy
from ..experiments.testbed import DEFAULT_ZONE, build_testbed, testbed_config
from ..netsim.fragmentation import fragment_datagram
from ..netsim.network import Network
from ..netsim.packets import IPPacket, UDPDatagram
from .attacker import DEFAULT_MALICIOUS_TTL, AttackerInfrastructure


@dataclass(frozen=True)
class FragmentationAttackConditions:
    """Feasibility conditions of the fragmentation vector for one target pair.

    These are exactly the properties the companion study measured for
    pool.ntp.org nameservers and for resolvers in the wild; the measurement
    module re-uses this class when computing the §II statistics.
    """

    #: Smallest MTU the nameserver is willing to fragment responses to.
    nameserver_min_mtu: int
    #: Whether the nameserver serves DNSSEC-signed responses (signed data
    #: would let a validating resolver detect the forgery).
    nameserver_has_dnssec: bool
    #: Whether the resolver accepts and reassembles fragmented responses.
    resolver_accepts_fragments: bool
    #: Smallest fragment size the resolver accepts (68 is the IPv4 minimum).
    resolver_min_fragment_mtu: int = 68
    #: Whether the resolver validates DNSSEC.
    resolver_validates_dnssec: bool = False
    #: Size of the response the attacker can trigger, in bytes.
    response_size: int = 1200

    def response_fragments(self) -> bool:
        """Does the triggered response actually exceed the usable MTU?"""
        return self.response_size + 28 > self.nameserver_min_mtu

    @property
    def feasible(self) -> bool:
        """Whether the vector can work at all against this pair."""
        if not self.resolver_accepts_fragments:
            return False
        if self.nameserver_has_dnssec and self.resolver_validates_dnssec:
            return False
        if not self.response_fragments():
            return False
        return self.nameserver_min_mtu >= self.resolver_min_fragment_mtu


@dataclass
class FragmentationAttackReport:
    """What happened during one poisoning attempt."""

    planted_fragments: int = 0
    ipid_hit: bool = False
    checksum_valid: bool = False
    cache_poisoned: bool = False
    injected_addresses: list[str] = field(default_factory=list)


class FragmentationPoisoner:
    """Executes the defragmentation-poisoning attack inside the simulation."""

    def __init__(self, network: Network, attacker: AttackerInfrastructure,
                 resolver: RecursiveResolver, nameserver: PoolNTPNameserver,
                 zone_name: str = "pool.ntp.org",
                 ipid_window: int = 16,
                 checksum_oracle: bool = True) -> None:
        self.network = network
        self.attacker = attacker
        self.resolver = resolver
        self.nameserver = nameserver
        self.zone_name = zone_name
        #: How many consecutive IP-ID values the attacker covers with planted
        #: fragments.  Sequential-IP-ID stacks make a small window sufficient.
        self.ipid_window = ipid_window
        #: When True the attacker crafts its forged records so that the UDP
        #: checksum of the spliced datagram still validates (the published
        #: attack does this by choosing record contents whose checksum
        #: contribution matches); when False the splice is detected by the
        #: checksum and the poisoning fails.
        self.checksum_oracle = checksum_oracle
        self.reports: list[FragmentationAttackReport] = []

    # -- crafting ----------------------------------------------------------------
    def _forged_response_like(self, benign: DNSMessage) -> DNSMessage:
        """Forge a response with the benign response's shape but attacker data.

        The record count is preserved (it lives in the header, inside the
        first — genuine — fragment); the attacker substitutes its own server
        addresses and a high TTL for every A-record position it can reach.
        A signature record in the model is mirrored position-for-position —
        its fixed-size digest keeps the byte layout aligned — but its value
        is forged, which is exactly what a validating resolver catches.
        """
        count = sum(1 for record in benign.answers if record.rtype == RecordType.A)
        addresses = self.attacker.ntp_addresses[:count]
        answers = [a_record(benign.question.name, address, self.attacker.malicious_ttl)
                   for address in addresses]
        # Pad with repeats if the attacker has fewer servers than positions.
        while len(answers) < count:
            answers.append(a_record(benign.question.name, addresses[-1], self.attacker.malicious_ttl))
        if any(record.rtype == RecordType.TXT for record in benign.answers):
            answers.append(signature_record("attacker-forged-key",
                                            benign.question.name, answers))
        return benign.make_response(answers)

    def craft_spoofed_fragments(self, benign_response: DNSMessage, udp_src_port: int,
                                udp_dst_port: int, ip_id: int,
                                mtu: Optional[int] = None) -> list[IPPacket]:
        """Build the spoofed trailing fragments for one predicted IP-ID."""
        mtu = mtu or self.nameserver.min_supported_mtu
        forged = self._forged_response_like(benign_response)
        forged_datagram = UDPDatagram(
            src_ip=self.nameserver.address,
            dst_ip=self.resolver.address,
            src_port=udp_src_port,
            dst_port=udp_dst_port,
            payload=forged.encode(),
        )
        fragments = fragment_datagram(forged_datagram, ip_id=ip_id, mtu=mtu)
        return [
            IPPacket(
                src_ip=fragment.src_ip,
                dst_ip=fragment.dst_ip,
                ip_id=fragment.ip_id,
                payload=fragment.payload,
                fragment_offset=fragment.fragment_offset,
                more_fragments=fragment.more_fragments,
                spoofed=True,
                # The published attack keeps the UDP checksum of the spliced
                # datagram valid by choosing record contents with the same
                # checksum contribution; the oracle flag models that step.
                checksum_compensated=self.checksum_oracle,
            )
            for fragment in fragments
            if not fragment.first_fragment()
        ]

    # -- executing ----------------------------------------------------------------
    def plant_fragments(self, expected_response: DNSMessage, udp_src_port: int = DNS_PORT,
                        udp_dst_port: int = 33333,
                        starting_ipid: Optional[int] = None) -> FragmentationAttackReport:
        """Inject spoofed fragments covering the predicted IP-ID window.

        ``expected_response`` is the attacker's model of the benign response
        (same question, same record count); off-path it cannot see the real
        one, but pool.ntp.org's answer shape is public knowledge.
        """
        report = FragmentationAttackReport()
        if starting_ipid is None:
            # Sequential-IP-ID prediction: the attacker probes the nameserver
            # from its own vantage point and extrapolates the next values.
            starting_ipid = self._predict_next_ipid()
        # The burst differs between candidate IP-IDs only in the IP header
        # field: forge, encode and fragment the response once, then stamp
        # each candidate id onto copies of the template fragments instead of
        # re-encoding the identical payload per window entry.
        template = self.craft_spoofed_fragments(expected_response, udp_src_port,
                                                udp_dst_port, starting_ipid & 0xFFFF)
        for offset in range(self.ipid_window):
            ip_id = (starting_ipid + offset) & 0xFFFF
            fragments = (template if offset == 0 else
                         [replace(fragment, ip_id=ip_id) for fragment in template])
            for fragment in fragments:
                self.network.inject(fragment)
                report.planted_fragments += 1
        report.injected_addresses = self.attacker.ntp_addresses[: len(expected_response.answers)]
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("attack.frag_bursts").inc()
            obs.metrics.counter("attack.fragments_planted").inc(report.planted_fragments)
            obs.trace.instant("attack.frag_burst", category="attack",
                              target=self.resolver.address,
                              impersonating=self.nameserver.address,
                              fragments=report.planted_fragments,
                              ipid_start=starting_ipid & 0xFFFF,
                              ipid_window=self.ipid_window)
        self.reports.append(report)
        return report

    def _predict_next_ipid(self) -> int:
        """Predict the nameserver's next IP-ID (sequential-counter model).

        The simulation's network assigns sequential per-source IP-IDs, so the
        prediction is simply "current counter + 1"; the prediction *window*
        models the uncertainty from other traffic the nameserver serves.
        """
        return self.network._next_ip_id.get(self.nameserver.address, 1)

    def verify_poisoning(self) -> bool:
        """Check whether the resolver now caches attacker addresses for the zone."""
        from ..dns.records import RecordType

        entry = self.resolver.cache.peek(self.zone_name, RecordType.A)
        if entry is None:
            return False
        attacker_addresses = set(self.attacker.ntp_addresses)
        poisoned = any(record.rdata in attacker_addresses for record in entry.records)
        if self.reports:
            self.reports[-1].cache_poisoned = poisoned
        return poisoned


def fragmentation_attack_success_probability(conditions: FragmentationAttackConditions,
                                              ipid_window: int = 16,
                                              ipid_space: int = 65536,
                                              ipid_predictable: bool = True,
                                              attempts: int = 1) -> float:
    """Analytic success probability of the fragmentation vector.

    Used for the E7 sweep: infeasible pairs score zero; feasible pairs with a
    predictable (sequential) IP-ID succeed essentially always; feasible pairs
    with randomised IP-IDs succeed with probability ``window / 65536`` per
    attempt.
    """
    if not conditions.feasible:
        return 0.0
    per_attempt = 1.0 if ipid_predictable else min(1.0, ipid_window / ipid_space)
    return 1.0 - (1.0 - per_attempt) ** max(attempts, 1)


class FragRaceWorld:
    """The world every fragmentation-splice race runs in.

    A testbed without a BGP hijacker, built from the scenario config's
    shared :class:`~repro.experiments.testbed.TestbedConfig` fields, plus
    the :class:`FragmentationPoisoner` aimed at its resolver.  The
    ``frag_poisoning`` and ``downgrade`` scenarios both race here, so the
    two rows model the same attacker in the same world.  ``config`` must
    carry ``zone``, ``records_per_response``, ``ipid_window`` and
    ``checksum_oracle``.
    """

    def __init__(self, config: Any, address_block: str,
                 accept_fragments: bool = True) -> None:
        self.config = config
        self.testbed = build_testbed(testbed_config(
            config,
            benign_address_block=address_block,
            resolver_policy=ResolverPolicy(accept_fragmented_responses=accept_fragments),
            with_hijacker=False,
        ))
        self.simulator = self.testbed.simulator
        self.network = self.testbed.network
        self.nameserver = self.testbed.nameserver
        self.resolver = self.testbed.resolver
        self.attacker = self.testbed.attacker
        self.poisoner = FragmentationPoisoner(
            self.network,
            self.attacker,
            self.resolver,
            self.nameserver,
            zone_name=config.zone,
            ipid_window=config.ipid_window,
            checksum_oracle=config.checksum_oracle,
        )

    def expected_response(self) -> DNSMessage:
        """The attacker's off-path model of the benign (UDP) response.

        Only the shape matters (record count and fixed A-record encoding);
        the attacker cannot observe which concrete addresses the nameserver
        rotates into the real answer.  Deployed hardenings are *observable*
        shape too — an attacker probing the resolver/zone sees cookies and
        signature records on the wire — so the model mirrors their byte
        layout with placeholder values: the real cookie sits in the genuine
        first fragment, and the forged signature value is simply wrong (the
        attacker holds no zone key).
        """
        zone = self.config.zone
        addresses = self.nameserver.pool_servers[:self.config.records_per_response]
        answers = [a_record(zone, address, self.nameserver.ttl) for address in addresses]
        if self.testbed.config.zone_key is not None:
            answers.append(signature_record("attacker-forged-key", zone, answers))
        message = DNSMessage.query(0, zone).make_response(answers)
        if any(isinstance(defense, DNSCookies) for defense in self.resolver.defenses):
            message = replace(message, cookie=0)
        return message

    def cached_records(self) -> tuple[int, int]:
        """(records the resolver caches for the zone, how many are the attacker's)."""
        entry = self.resolver.cache.peek(self.config.zone, RecordType.A)
        cached = list(entry.records) if entry is not None else []
        attacker_addresses = set(self.attacker.ntp_addresses)
        return len(cached), sum(1 for record in cached if record.rdata in attacker_addresses)


@dataclass
class FragPoisoningConfig:
    """Configuration of the standalone defragmentation-poisoning scenario."""

    seed: int = 17
    zone: str = DEFAULT_ZONE
    benign_server_count: int = 60
    #: Records per benign response; enough that the answer section spills
    #: into the trailing fragment(s) the attacker substitutes.
    records_per_response: int = 40
    benign_ttl: int = POOL_NTP_ORG_TTL
    #: Path MTU towards the resolver (548 matches the companion study's
    #: fragmenting nameservers; 1500 makes the vector infeasible).
    nameserver_min_mtu: int = 548
    #: Whether the victim resolver reassembles fragmented responses at all.
    accept_fragments: bool = True
    checksum_oracle: bool = True
    ipid_window: int = 16
    #: Fixed starting IP-ID (``None`` = predict the sequential counter).
    starting_ipid: Optional[int] = None
    attacker_record_count: Optional[int] = None
    malicious_ttl: int = DEFAULT_MALICIOUS_TTL
    #: Extra countermeasures stacked on the victim resolver.
    defenses: DefenseSpec = ()
    #: Declarative fault plan injected into the network (see :mod:`repro.faults`).
    faults: tuple = ()
    latency: float = 0.01
    #: Number of poisoning races to run back-to-back.  ``1`` is the classic
    #: single-shot vector; larger values model a *sustained-load* attacker
    #: re-racing at ``trigger_interval`` spacing — the offered-load profile
    #: response-rate limiting is designed to throttle.
    trigger_count: int = 1
    #: Seconds between races when ``trigger_count > 1``.
    trigger_interval: float = 0.25


@dataclass
class FragPoisoningResult:
    """Outcome of one defragmentation-poisoning attempt."""

    planted_fragments: int
    cache_poisoned: bool
    poisoned_records_cached: int
    records_cached: int
    #: Sustained-load accounting: how many races ran and how many of them
    #: left attacker records in the cache.  The classic single-shot run is
    #: simply ``races_run == 1``.
    races_run: int = 1
    races_poisoned: int = 0

    @property
    def attack_succeeded(self) -> bool:
        return self.cache_poisoned


class FragPoisoningScenario(FragRaceWorld):
    """The §II.A fragmentation vector as a self-contained, registry-runnable
    scenario: plant spoofed trailing fragments, trigger the query, check the
    victim resolver's cache."""

    config: FragPoisoningConfig

    def __init__(self, config: Optional[FragPoisoningConfig] = None) -> None:
        config = config or FragPoisoningConfig()
        super().__init__(config, "10.40.0.0/16", accept_fragments=config.accept_fragments)

    def run(self) -> FragPoisoningResult:
        if self.config.trigger_count <= 1:
            # The classic single-shot race, kept event-for-event identical
            # to the pre-sustained-load scenario (pinned digests).
            self.poisoner.plant_fragments(self.expected_response(),
                                          starting_ipid=self.config.starting_ipid)
            self.resolver.trigger_lookup(self.config.zone)
            self.simulator.run(until=self.simulator.now + 10.0)
            poisoned = self.poisoner.verify_poisoning()
            return self._result(self.poisoner.reports, poisoned,
                                races_run=1, races_poisoned=int(poisoned))
        return self._run_sustained()

    def _run_sustained(self) -> FragPoisoningResult:
        """Re-race every ``trigger_interval`` seconds, ``trigger_count`` times.

        Each race is independent: the previous cache entry is evicted so the
        trigger is a fresh cache-miss race against the *live* nameserver —
        which is exactly what a response-rate limiter throttles.  A race
        whose UDP response is suppressed either times out (drop) or comes
        back TC=1 (slip) and retries over TCP, where the splice cannot reach.
        """
        races_poisoned = 0
        for _ in range(self.config.trigger_count):
            self.resolver.cache.evict(self.config.zone, RecordType.A)
            self.poisoner.plant_fragments(self.expected_response(),
                                          starting_ipid=self.config.starting_ipid)
            self.resolver.trigger_lookup(self.config.zone)
            self.simulator.run(until=self.simulator.now + self.config.trigger_interval)
            if self.poisoner.verify_poisoning():
                races_poisoned += 1
        self.simulator.run(until=self.simulator.now + 10.0)
        poisoned = self.poisoner.verify_poisoning() or races_poisoned > 0
        return self._result(self.poisoner.reports, poisoned,
                            races_run=self.config.trigger_count,
                            races_poisoned=races_poisoned)

    def _result(self, reports: list[FragmentationAttackReport], poisoned: bool,
                races_run: int, races_poisoned: int) -> FragPoisoningResult:
        records_cached, poisoned_cached = self.cached_records()
        return FragPoisoningResult(
            planted_fragments=sum(report.planted_fragments for report in reports),
            cache_poisoned=poisoned,
            poisoned_records_cached=poisoned_cached,
            records_cached=records_cached,
            races_run=races_run,
            races_poisoned=races_poisoned,
        )
