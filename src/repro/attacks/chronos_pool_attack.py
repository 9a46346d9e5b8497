"""The paper's main contribution: the DNS-poisoning attack on Chronos' pool.

This module provides the end-to-end scenario of Figure 1 (§IV):

* a victim network — a Chronos client, its recursive resolver and the benign
  pool.ntp.org infrastructure (authoritative nameserver plus a few hundred
  volunteer NTP servers);
* an attacker — up to 89 malicious NTP servers (the number that fits in one
  unfragmented DNS response) and the machinery to poison the resolver's
  cache for ``pool.ntp.org`` with those addresses under a TTL longer than
  24 hours;
* the timeline — the poisoning lands at a configurable pool-generation query
  index *k*; the paper's claim is that any *k* ≤ 12 leaves the attacker with
  at least two-thirds of the generated pool, enough to fully control both
  regular Chronos updates and panic mode.

Both the full packet-level simulation (:class:`ChronosPoolAttackScenario`)
and the closed-form pool arithmetic (:func:`analytic_pool_composition`) are
provided; the benchmarks cross-check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.chronos_client import ChronosClient
from ..core.pool_generation import GeneratedPool, PoolComposition, PoolGenerationPolicy
from ..core.selection import ChronosConfig
from ..defenses.stack import DefenseSpec
from ..dns.nameserver import POOL_NTP_ORG_TTL, POOL_RECORDS_PER_RESPONSE
from ..dns.resolver import ResolverPolicy
from ..experiments.testbed import DEFAULT_ZONE, Testbed, build_testbed, testbed_config


@dataclass
class PoolAttackConfig:
    """Configuration of the end-to-end pool attack scenario."""

    seed: int = 1
    zone: str = DEFAULT_ZONE
    #: Size of the benign volunteer-server population behind pool.ntp.org.
    benign_server_count: int = 200
    #: Addresses per benign DNS response (4 for pool.ntp.org).
    records_per_response: int = POOL_RECORDS_PER_RESPONSE
    #: TTL of benign pool.ntp.org records (150 s in the real zone).
    benign_ttl: int = POOL_NTP_ORG_TTL
    #: 1-indexed pool-generation query at which the poisoning lands
    #: (``None`` = no attack).
    poison_at_query: Optional[int] = 1
    #: How long the hijack window stays open (seconds).  The attack needs it
    #: open only around one query.
    hijack_duration: float = 600.0
    #: Number of malicious NTP servers / injected A records (``None`` = the
    #: maximum that fits unfragmented, i.e. 89).
    attacker_record_count: Optional[int] = None
    #: TTL of the poisoned records (seconds); the paper uses > 24 h.
    malicious_ttl: int = 2 * 86400
    #: Chronos algorithm parameters.
    chronos: ChronosConfig = field(default_factory=ChronosConfig)
    #: Pool-generation policy (enable the §V mitigations here).
    pool_policy: PoolGenerationPolicy = field(default_factory=PoolGenerationPolicy)
    #: Resolver-side policy (TTL caps, record caps, fragment acceptance).
    resolver_policy: ResolverPolicy = field(default_factory=ResolverPolicy)
    #: Extra countermeasures (registry names and/or instances) stacked on the
    #: resolver, the pool generation and the NTP sampling.
    defenses: DefenseSpec = ()
    #: Declarative fault plan injected into the network (see :mod:`repro.faults`).
    faults: tuple = ()
    #: Mean one-way network latency (seconds).
    latency: float = 0.01


@dataclass
class PoolAttackResult:
    """Outcome of the pool-generation phase of the attack."""

    pool: GeneratedPool
    composition: PoolComposition
    poisoned_queries: list[int]
    cache_hits_during_generation: int
    config: PoolAttackConfig

    @property
    def attacker_fraction(self) -> float:
        return self.composition.malicious_fraction

    @property
    def attack_succeeded(self) -> bool:
        """The §IV success criterion: attacker holds at least 2/3 of the pool."""
        return self.composition.attacker_has_two_thirds


@dataclass
class TimeShiftResult:
    """Outcome of the time-shifting phase run on the generated pool."""

    target_shift: float
    achieved_error: float
    updates_run: int
    panic_rounds: int
    applied_offsets: list[float]

    @property
    def shift_achieved(self) -> bool:
        """Whether the victim clock moved at least half way to the target."""
        if self.target_shift == 0:
            return False
        return abs(self.achieved_error) >= abs(self.target_shift) / 2


class ChronosPoolAttackScenario:
    """Builds and runs the Figure-1 attack end to end on the simulator."""

    def __init__(self, config: Optional[PoolAttackConfig] = None) -> None:
        self.config = config or PoolAttackConfig()
        self.testbed = build_testbed(
            testbed_config(self.config, benign_address_block="10.10.0.0/16"),
            victim_factory=self._build_client,
        )
        self.simulator = self.testbed.simulator
        self.network = self.testbed.network
        self.benign_servers = self.testbed.benign_servers
        self.nameserver = self.testbed.nameserver
        self.resolver = self.testbed.resolver
        self.client: ChronosClient = self.testbed.victim
        self.attacker = self.testbed.attacker
        self.hijacker = self.testbed.hijacker
        self.pool_result: Optional[PoolAttackResult] = None

    def _build_client(self, testbed: Testbed) -> ChronosClient:
        return ChronosClient(
            testbed.network,
            "192.0.2.100",
            resolver_address=testbed.resolver.address,
            hostname=self.config.zone,
            config=self.config.chronos,
            pool_policy=self.config.pool_policy,
            defenses=testbed.defenses,
        )

    # -- running -----------------------------------------------------------------
    def _schedule_poisoning(self) -> None:
        if self.config.poison_at_query is None:
            return
        index = self.config.poison_at_query
        if index < 1 or index > self.config.pool_policy.query_count:
            raise ValueError(
                f"poison_at_query must be in 1..{self.config.pool_policy.query_count}")
        # Query i (1-indexed) is issued (i - 1) * interval seconds after start.
        query_time = (index - 1) * self.config.pool_policy.query_interval
        start = max(query_time - self.config.hijack_duration / 2.0, 0.0)
        self.hijacker.schedule_window(start, self.config.hijack_duration)

    def run_pool_generation(self) -> PoolAttackResult:
        """Run the 24-hour pool-generation window (with the attack, if any)."""
        self._schedule_poisoning()
        completed: list[GeneratedPool] = []
        self.client.pool_generator.generate(completed.append)
        total_window = (self.config.pool_policy.query_count
                        * self.config.pool_policy.query_interval + 300.0)
        self.simulator.run(until=total_window)
        if not completed:
            raise RuntimeError("pool generation did not complete within the window")
        pool = completed[0]
        self.client.pool = pool
        composition = pool.composition(self.attacker.ntp_addresses)
        poisoned_queries = [
            record.index + 1
            for record in pool.queries
            if set(record.accepted_addresses) & set(self.attacker.ntp_addresses)
        ]
        self.pool_result = PoolAttackResult(
            pool=pool,
            composition=composition,
            poisoned_queries=poisoned_queries,
            cache_hits_during_generation=self.resolver.queries_answered_from_cache,
            config=self.config,
        )
        return self.pool_result

    def run_time_shift(self, target_shift: float, update_rounds: int = 8) -> TimeShiftResult:
        """Phase 2: attacker NTP servers serve shifted time; run Chronos updates."""
        if self.pool_result is None:
            raise RuntimeError("run_pool_generation() must be called first")
        self.attacker.set_time_shift(target_shift)
        # Begin the Chronos update loop on the already-generated pool.
        self.client.begin_updates()
        duration = update_rounds * self.config.chronos.poll_interval + 60.0
        self.simulator.run_for(duration)
        applied = [record.applied_offset for record in self.client.update_history
                   if record.applied_offset is not None]
        return TimeShiftResult(
            target_shift=target_shift,
            achieved_error=self.client.clock_error,
            updates_run=len(self.client.update_history),
            panic_rounds=self.client.panic_count,
            applied_offsets=applied,
        )


def analytic_pool_composition(poison_at_query: Optional[int],
                              query_count: int = 24,
                              benign_per_response: int = POOL_RECORDS_PER_RESPONSE,
                              attacker_records: int = 89,
                              malicious_ttl: int = 2 * 86400,
                              query_interval: float = 3600.0) -> PoolComposition:
    """The paper's closed-form pool arithmetic (§IV).

    If the poisoning lands at query ``k`` (1-indexed), the first ``k - 1``
    queries contributed ``benign_per_response`` benign addresses each, the
    poisoned query contributes ``attacker_records`` malicious addresses, and —
    because the malicious TTL exceeds the remaining generation window — every
    later query is a cache hit contributing nothing new.
    """
    if poison_at_query is None or poison_at_query > query_count:
        return PoolComposition(benign=query_count * benign_per_response, malicious=0)
    if poison_at_query < 1:
        raise ValueError("poison_at_query must be >= 1")
    benign_queries = poison_at_query - 1
    remaining_window = (query_count - poison_at_query) * query_interval
    if malicious_ttl >= remaining_window:
        benign = benign_queries * benign_per_response
    else:
        # The poisoned entry expires before generation ends; later queries
        # reach the benign nameserver again.
        expired_after = int(malicious_ttl // query_interval)
        later_benign_queries = max(0, query_count - poison_at_query - expired_after)
        benign = (benign_queries + later_benign_queries) * benign_per_response
    return PoolComposition(benign=benign, malicious=attacker_records)


def minimum_queries_for_attacker_majority(query_count: int = 24,
                                          benign_per_response: int = POOL_RECORDS_PER_RESPONSE,
                                          attacker_records: int = 89) -> int:
    """Latest poisoning query index that still yields a 2/3 attacker majority.

    Evaluates the closed form for every k and returns the largest k whose
    composition satisfies the two-thirds bound — the paper states this is 12.
    """
    latest = 0
    for k in range(1, query_count + 1):
        composition = analytic_pool_composition(k, query_count, benign_per_response,
                                                attacker_records)
        if composition.attacker_has_two_thirds:
            latest = k
    return latest
