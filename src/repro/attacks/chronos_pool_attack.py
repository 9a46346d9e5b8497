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
provided; the benchmarks cross-check one against the other.  The
scenario's two phases return the two halves of the ``chronos_pool_attack``
registry metrics dict (see :mod:`repro.experiments.scenarios`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.chronos_client import ChronosClient
from ..core.pool_generation import (
    GeneratedPool,
    PoolComposition,
    PoolGenerationPolicy,
    reject_retired_pool_params,
)
from ..core.security_analysis import shift_reached
from ..defenses.stack import DefenseSpec, defense_rejections
from ..experiments.registry import OPT_IN
from ..experiments.testbed import DEFAULT_ZONE, Testbed, build_testbed, testbed_config
from ..population.batch import FleetPolicy, compose_client

#: The §IV threat model: the packet testbed's zone and the 89-record flood
#: under a 2-day TTL, with address-counted benign responses.
SECTION4_POLICY = FleetPolicy()


@dataclass
class PoolAttackConfig:
    """Configuration of the end-to-end pool attack scenario."""

    seed: int = 1
    #: Size of the benign volunteer-server population behind pool.ntp.org.
    benign_server_count: int = 200
    #: 1-indexed pool-generation query at which the poisoning lands
    #: (``None`` = no attack).
    poison_at_query: Optional[int] = 3
    #: How long the hijack window stays open (seconds).  The attack needs it
    #: open only around one query.
    hijack_duration: float = 600.0
    #: Number of malicious NTP servers / injected A records (``None`` = the
    #: maximum that fits unfragmented, i.e. 89).
    attacker_record_count: Optional[int] = None
    #: TTL of the poisoned records (seconds); the paper uses > 24 h.
    malicious_ttl: int = 2 * 86400
    #: Whether the pool generation keeps only unique addresses.
    dedupe: bool = True
    #: Extra countermeasures (registry names and/or instances) stacked on the
    #: resolver, the pool generation and the NTP sampling.
    defenses: DefenseSpec = ()
    #: Declarative fault plan injected into the network (see :mod:`repro.faults`).
    faults: tuple = field(default=(), metadata=OPT_IN)
    #: Phase 2: whether :meth:`ChronosPoolAttackScenario.run` goes on to
    #: shift the clock, by how much, over how many Chronos updates.
    run_time_shift: bool = True
    target_shift: float = 600.0
    update_rounds: int = 5
    #: The retired pool knobs (``RETIRED_POOL_PARAMS``): anything but
    #: ``None`` is rejected.
    max_addresses_per_response: None = None
    max_accepted_ttl: None = None


class ChronosPoolAttackScenario:
    """Builds and runs the Figure-1 attack end to end on the simulator."""

    def __init__(self, config: Optional[PoolAttackConfig] = None) -> None:
        self.config = config or PoolAttackConfig()
        reject_retired_pool_params(vars(self.config))
        self.pool_policy = PoolGenerationPolicy(dedupe=self.config.dedupe)
        self.testbed = build_testbed(
            testbed_config(self.config, benign_address_block="10.10.0.0/16"),
            victim_factory=self._build_client,
        )
        self.simulator = self.testbed.simulator
        self.resolver = self.testbed.resolver
        self.client: ChronosClient = self.testbed.victim
        self.attacker = self.testbed.attacker
        self.hijacker = self.testbed.hijacker

    def _build_client(self, testbed: Testbed) -> ChronosClient:
        return ChronosClient(
            testbed.network,
            "192.0.2.100",
            resolver_address=testbed.resolver.address,
            hostname=DEFAULT_ZONE,
            pool_policy=self.pool_policy,
            defenses=testbed.defenses,
        )

    # -- running -----------------------------------------------------------------
    def _schedule_poisoning(self) -> None:
        if self.config.poison_at_query is None:
            return
        index = self.config.poison_at_query
        if index < 1 or index > self.pool_policy.query_count:
            raise ValueError(
                f"poison_at_query must be in 1..{self.pool_policy.query_count}")
        # Query i (1-indexed) is issued (i - 1) * interval seconds after start.
        query_time = (index - 1) * self.pool_policy.query_interval
        start = max(query_time - self.config.hijack_duration / 2.0, 0.0)
        self.hijacker.schedule_window(start, self.config.hijack_duration)

    def run_pool_generation(self) -> dict[str, Any]:
        """Run the 24-hour pool-generation window (with the attack, if any).

        Returns the pool half of the ``chronos_pool_attack`` registry dict;
        ``attack_succeeded`` is the §IV criterion (attacker holds at least
        2/3 of the pool).
        """
        self._schedule_poisoning()
        completed: list[GeneratedPool] = []
        self.client.pool_generator.generate(completed.append)
        total_window = (self.pool_policy.query_count
                        * self.pool_policy.query_interval + 300.0)
        self.simulator.run(until=total_window)
        if not completed:
            raise RuntimeError("pool generation did not complete within the window")
        pool = self.client.pool = completed[0]
        composition = pool.composition(self.attacker.ntp_addresses)
        malicious = set(self.attacker.ntp_addresses)
        return {
            "defense_rejections": defense_rejections(self.resolver.defenses,
                                                     self.testbed.defenses),
            "attack_succeeded": composition.attacker_has_two_thirds,
            "attacker_fraction": composition.malicious_fraction,
            "benign": composition.benign,
            "malicious": composition.malicious,
            "pool_size": pool.size,
            "cache_hits": self.resolver.queries_answered_from_cache,
            "poisoned_queries": [record.index + 1 for record in pool.queries
                                 if not malicious.isdisjoint(record.accepted_addresses)],
        }

    def run(self) -> dict[str, Any]:
        """Both phases as the config asks; the ``chronos_pool_attack`` registry dict."""
        metrics = self.run_pool_generation()
        if self.config.run_time_shift:
            metrics.update(self.run_time_shift(self.config.target_shift,
                                               self.config.update_rounds))
        return metrics

    def run_time_shift(self, target_shift: float, update_rounds: int) -> dict[str, Any]:
        """Phase 2: attacker NTP servers serve shifted time; run Chronos updates.

        Returns the time-shift half of the ``chronos_pool_attack`` registry dict.
        """
        if self.client.pool is None:
            raise RuntimeError("run_pool_generation() must be called first")
        self.attacker.set_time_shift(target_shift)
        # Begin the Chronos update loop on the already-generated pool.
        self.client.begin_updates()
        duration = update_rounds * self.client.config.poll_interval + 60.0
        self.simulator.run_for(duration)
        return {
            "achieved_shift": self.client.clock_error,
            "shift_achieved": shift_reached(self.client.clock_error, target_shift),
            "updates_run": len(self.client.update_history),
            "panic_rounds": self.client.panic_count,
        }


def analytic_pool_composition(poison_at_query: Optional[int],
                              policy: FleetPolicy = SECTION4_POLICY) -> PoolComposition:
    """The paper's closed-form pool arithmetic (§IV).

    If the poisoning lands at query ``k`` (1-indexed), the first ``k - 1``
    queries contributed ``policy.benign_per_response`` benign addresses each,
    the poisoned query contributes the attacker records its defenses accept,
    counted once, and every later query within the malicious TTL is a cache
    hit contributing nothing new.  The benign side and the TTL expiry are
    :func:`compose_client`'s.
    """
    if poison_at_query is not None and poison_at_query < 1:
        raise ValueError("poison_at_query must be >= 1")
    client = compose_client(policy, poison_at_query or 0)
    malicious = (policy.accepted(policy.attacker_records, policy.malicious_ttl)
                 if client.poison_at_query else 0)
    return PoolComposition(benign=client.benign, malicious=malicious)
