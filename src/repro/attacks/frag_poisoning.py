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
in the trailing fragment(s).  :meth:`FragPoisoningScenario.run` returns the
``frag_poisoning`` registry metrics dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..defenses.classic import FragmentedResponseRejection
from ..defenses.hardening import DNSCookies
from ..defenses.stack import DefenseSpec, defense_rejections
from ..dns.message import DNSMessage
from ..dns.nameserver import DNS_PORT, PoolNTPNameserver
from ..dns.records import RecordType, a_record, signature_record
from ..dns.resolver import RecursiveResolver
from ..experiments.registry import OPT_IN
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


class FragmentationPoisoner:
    """Executes the defragmentation-poisoning attack inside the simulation."""

    def __init__(self, network: Network, attacker: AttackerInfrastructure,
                 resolver: RecursiveResolver, nameserver: PoolNTPNameserver,
                 zone_name: str = DEFAULT_ZONE,
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
        # The published attack keeps the UDP checksum of the spliced datagram
        # valid by choosing record contents with the same checksum
        # contribution; the oracle flag models that step.
        return [replace(fragment, spoofed=True, checksum_compensated=self.checksum_oracle)
                for fragment in fragments if not fragment.first_fragment()]

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
        return self.attacker.cached_records(self.resolver, self.zone_name)[1] > 0


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
    carry ``records_per_response``, ``ipid_window`` and ``checksum_oracle``.
    A resolver that does not ``accept_fragments`` runs the
    ``fragment_rejection`` defense ahead of the config's own.
    """

    def __init__(self, config: Any, address_block: str,
                 accept_fragments: bool = True) -> None:
        self.config = config
        world = testbed_config(config, benign_address_block=address_block, with_hijacker=False)
        if not accept_fragments:
            world.defenses = (FragmentedResponseRejection(), *world.defenses)
        self.testbed = build_testbed(world)
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
        addresses = self.nameserver.pool_servers[:self.config.records_per_response]
        answers = [a_record(DEFAULT_ZONE, address, self.nameserver.ttl)
                   for address in addresses]
        if self.nameserver.zone_key is not None:
            answers.append(signature_record("attacker-forged-key", DEFAULT_ZONE, answers))
        message = DNSMessage.query(0, DEFAULT_ZONE).make_response(answers)
        if any(isinstance(defense, DNSCookies) for defense in self.resolver.defenses):
            message = replace(message, cookie=0)
        return message


@dataclass
class FragPoisoningConfig:
    """Configuration of the standalone defragmentation-poisoning scenario."""

    seed: int = 17
    benign_server_count: int = 60
    #: Records per benign response; enough that the answer section spills
    #: into the trailing fragment(s) the attacker substitutes.
    records_per_response: int = 40
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
    faults: tuple = field(default=(), metadata=OPT_IN)
    #: Number of poisoning races to run back-to-back.  ``None`` is the
    #: classic single-shot vector and its classic metrics; a count also
    #: reports the sustained-load keys (``races_run``, ``races_poisoned``,
    #: ``rrl_dropped``, ``rrl_slipped``), and a count above 1 models a
    #: *sustained-load* attacker re-racing at ``trigger_interval`` spacing —
    #: the offered-load profile response-rate limiting is designed to throttle.
    #: Opt-in, like ``trigger_interval``, so single-race runs keep their
    #: pinned digests; the ``sustained_load`` matrix row sets both.
    trigger_count: Optional[int] = field(default=None, metadata=OPT_IN)
    #: Seconds between races when ``trigger_count > 1``.
    trigger_interval: float = field(default=0.25, metadata=OPT_IN)


class FragPoisoningScenario(FragRaceWorld):
    """The §II.A fragmentation vector as a self-contained, registry-runnable
    scenario: plant spoofed trailing fragments, trigger the query, check the
    victim resolver's cache."""

    config: FragPoisoningConfig

    def __init__(self, config: Optional[FragPoisoningConfig] = None) -> None:
        config = config or FragPoisoningConfig()
        super().__init__(config, "10.40.0.0/16", accept_fragments=config.accept_fragments)

    def run(self) -> dict[str, Any]:
        """Returns the ``frag_poisoning`` registry metrics dict.

        Each race evicts the cached answer, so its trigger is a fresh miss
        against the *live* nameserver — what a response-rate limiter
        throttles; a suppressed UDP response times out (drop) or comes back
        TC=1 (slip) and retries over TCP, where the splice cannot reach.
        The run ends 10 s after the last trigger, so the single-shot vector
        is one race with 10 s spacing.
        """
        count = self.config.trigger_count
        races, spacing = ((count, self.config.trigger_interval) if count is not None and count > 1
                          else (1, 10.0))
        races_poisoned = 0
        for _ in range(races):
            self.resolver.cache.evict(DEFAULT_ZONE, RecordType.A)
            self.poisoner.plant_fragments(self.expected_response(),
                                          starting_ipid=self.config.starting_ipid)
            self.resolver.trigger_lookup(DEFAULT_ZONE)
            triggered_at = self.simulator.now
            self.simulator.run(until=triggered_at + spacing)
            races_poisoned += self.poisoner.verify_poisoning()
        self.simulator.run(until=triggered_at + 10.0)
        poisoned = self.poisoner.verify_poisoning() or races_poisoned > 0
        records_cached, poisoned_cached = self.attacker.cached_records(self.resolver,
                                                                       DEFAULT_ZONE)
        metrics = {
            "attack_succeeded": poisoned,
            "defense_rejections": defense_rejections(self.resolver.defenses),
            "cache_poisoned": poisoned,
            "planted_fragments": sum(report.planted_fragments
                                     for report in self.poisoner.reports),
            "poisoned_records_cached": poisoned_cached,
            "records_cached": records_cached,
        }
        if count is not None:
            limiter = self.nameserver.rate_limiter
            metrics.update({
                "races_run": races,
                "races_poisoned": races_poisoned,
                "rrl_dropped": limiter.responses_dropped if limiter else 0,
                "rrl_slipped": limiter.responses_slipped if limiter else 0,
            })
        return metrics
