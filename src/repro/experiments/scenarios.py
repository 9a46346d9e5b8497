"""Registry adapters exposing the attack scenarios as named experiments.

Each adapter translates a flat, picklable parameter dict into the scenario's
config dataclass, runs the scenario, and flattens the outcome into a metrics
dict.  The config dataclass is the one place an attack's parameters and
their defaults are declared: an adapter names the fields it exposes (plus
any explicit default overrides and the run-phase knobs that are not config
fields), and both ``default_params()`` and the config construction are
derived from the dataclass fields.  Conventions shared by all adapters so
sweeps aggregate uniformly:

* ``attack_succeeded`` — the scenario's headline success criterion (bool);
* ``achieved_shift`` — the clock error reached on the victim, where the
  scenario has a time-shifting phase (seconds);
* ``defenses`` — every attack scenario accepts a tuple of defense registry
  names (see :mod:`repro.defenses`) stacked onto the victim, and reports
  ``defense_rejections`` (defense name -> rejected responses/samples).

Importing this module registers the adapters; the registry does so lazily on
first lookup.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import fields
from typing import Any, ClassVar, Optional

from ..attacks.baseline_scenario import BaselineAttackConfig, TraditionalClientAttackScenario
from ..attacks.bgp_hijack import BGPHijackConfig, BGPHijackScenario
from ..attacks.chronos_pool_attack import ChronosPoolAttackScenario, PoolAttackConfig
from ..attacks.downgrade import DowngradeConfig, DowngradeScenario
from ..attacks.frag_poisoning import FragPoisoningConfig, FragPoisoningScenario
from ..core.pool_generation import PoolGenerationPolicy
from ..defenses.stack import DefenseStack
from ..defenses.transport import EncryptedTransport
from ..dns.records import RecordType
from .registry import merge_params, register_scenario
from .testbed import Testbed, TestbedConfig, build_testbed

#: The opt-in parameter every attack adapter accepts without defaulting:
#: a fault-plan spec (see :mod:`repro.faults`).  Declared optional so a
#: fault-free sweep's resolved params — and therefore its digests and
#: cache keys — are byte-identical to the pre-fault-subsystem era.
ATTACK_OPTIONAL_PARAMS: tuple[str, ...] = ("faults",)

#: The :class:`PoolGenerationPolicy` fields the pool-attack adapter exposes.
POOL_POLICY_PARAMS = ("dedupe", "max_addresses_per_response", "max_accepted_ttl")


def field_defaults(config_class: type, names: tuple[str, ...]) -> dict[str, Any]:
    """The dataclass defaults of the named fields of ``config_class``."""
    defaults = config_class()
    return {name: getattr(defaults, name) for name in names}


def defense_rejections(*stacks: DefenseStack) -> dict[str, int]:
    """Combined per-defense rejection counts across the given stacks.

    The resolver counts its own (response-side) rejections while the testbed
    stack counts pool-admission and NTP-sample vetoes; summing the two gives
    the full picture of *which* defense blocked an attack.
    """
    total: Counter = Counter()
    for stack in stacks:
        total.update(stack.rejections)
    return dict(sorted(total.items()))


class AttackAdapter:
    """An adapter whose parameter schema is its scenario's config dataclass.

    ``params`` names the config fields the adapter exposes; their defaults
    come from the dataclass unless ``overrides`` says otherwise.
    ``run_params`` are the run-phase knobs with their defaults: they are
    not config fields.  Optional keys (``faults`` plus any the adapter adds)
    take the dataclass default when absent, and never appear in
    ``default_params()``.
    """

    config_class: ClassVar[type]
    params: ClassVar[tuple[str, ...]]
    overrides: ClassVar[Mapping[str, Any]] = {}
    run_params: ClassVar[Mapping[str, Any]] = {}
    optional: ClassVar[tuple[str, ...]] = ATTACK_OPTIONAL_PARAMS

    def __init__(self) -> None:
        self._defaults = {**field_defaults(self.config_class, self.params),
                          **self.overrides, **self.run_params}
        self._config_fields = frozenset(spec.name for spec in fields(self.config_class))

    def default_params(self) -> dict[str, Any]:
        return dict(self._defaults)

    def optional_params(self) -> tuple[str, ...]:
        return self.optional

    def resolve(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """The defaults overlaid with ``params`` (unknown keys rejected)."""
        return merge_params(self._defaults, params, optional=self.optional)

    def build_config(self, seed: int, p: Mapping[str, Any], **extra: Any) -> Any:
        """The config dataclass for resolved params ``p``.

        Every resolved key that names a config field is passed through;
        ``extra`` supplies fields the adapter derives from run-phase knobs.
        """
        values = {name: value for name, value in p.items() if name in self._config_fields}
        values["defenses"] = tuple(values["defenses"])
        if "faults" in values:
            values["faults"] = tuple(values["faults"] or ())
        return self.config_class(seed=seed, **values, **extra)


@register_scenario
class ChronosPoolAttackExperiment(AttackAdapter):
    """Figure 1 end to end: poison the pool generation, then shift the clock."""

    name = "chronos_pool_attack"
    description = ("DNS poisoning of Chronos' 24-query pool generation "
                   "followed by the time-shifting phase (§IV)")
    config_class = PoolAttackConfig
    params = ("poison_at_query", "benign_server_count", "attacker_record_count",
              "malicious_ttl", "hijack_duration", "defenses")
    overrides = {"poison_at_query": 3}
    run_params = {
        **field_defaults(PoolGenerationPolicy, POOL_POLICY_PARAMS),
        "run_time_shift": True,
        "target_shift": 600.0,
        "update_rounds": 5,
    }

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = self.resolve(params)
        policy = PoolGenerationPolicy(**{name: p[name] for name in POOL_POLICY_PARAMS})
        scenario = ChronosPoolAttackScenario(self.build_config(seed, p, pool_policy=policy))
        pool = scenario.run_pool_generation()
        metrics: dict[str, Any] = {
            "defense_rejections": defense_rejections(scenario.resolver.defenses,
                                                     scenario.testbed.defenses),
            "attack_succeeded": pool.attack_succeeded,
            "attacker_fraction": pool.attacker_fraction,
            "benign": pool.composition.benign,
            "malicious": pool.composition.malicious,
            "pool_size": pool.pool.size,
            "cache_hits": pool.cache_hits_during_generation,
            "poisoned_queries": list(pool.poisoned_queries),
        }
        if p["run_time_shift"]:
            shift = scenario.run_time_shift(p["target_shift"],
                                            update_rounds=p["update_rounds"])
            metrics.update(
                achieved_shift=shift.achieved_error,
                shift_achieved=shift.shift_achieved,
                updates_run=shift.updates_run,
                panic_rounds=shift.panic_rounds,
            )
        return metrics


@register_scenario
class TraditionalClientAttackExperiment(AttackAdapter):
    """The baseline comparison: poison a plain NTP client's one DNS lookup."""

    name = "traditional_client_attack"
    description = ("DNS poisoning of a traditional NTP client's start-up "
                   "resolution followed by time shifting (E6/E9 baseline)")
    config_class = BaselineAttackConfig
    params = ("poison_startup_lookup", "benign_server_count", "attacker_record_count",
              "malicious_ttl", "max_servers", "defenses")
    run_params = {"target_shift": 600.0, "poll_rounds": 4}

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = self.resolve(params)
        scenario = TraditionalClientAttackScenario(self.build_config(seed, p))
        result = scenario.run(p["target_shift"], poll_rounds=p["poll_rounds"])
        return {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses,
                                                     scenario.testbed.defenses),
            "achieved_shift": result.achieved_error,
            "servers_used": len(result.servers_used),
            "malicious_servers_used": result.malicious_servers_used,
            "polls_run": result.polls_run,
        }


@register_scenario
class BGPHijackExperiment(AttackAdapter):
    """The prefix-hijack poisoning vector on its own (§II)."""

    name = "bgp_hijack"
    description = ("cache poisoning of the victim resolver via a BGP "
                   "more-specific hijack of the nameserver prefix (§II)")
    config_class = BGPHijackConfig
    params = ("benign_server_count", "attacker_record_count", "malicious_ttl",
              "hijack_start", "hijack_duration", "lookup_time", "defenses")

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        scenario = BGPHijackScenario(self.build_config(seed, self.resolve(params)))
        result = scenario.run()
        return {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses),
            "cache_poisoned": result.cache_poisoned,
            "malicious_records_cached": result.malicious_records_cached,
            "cached_ttl": result.cached_ttl,
            "legitimate_queries_answered": result.legitimate_queries_answered,
            "hijacked_queries_answered": result.hijacked_queries_answered,
        }


@register_scenario
class FragPoisoningExperiment(AttackAdapter):
    """The defragmentation-cache injection poisoning vector (§II.A)."""

    name = "frag_poisoning"
    description = ("cache poisoning via spoofed trailing IPv4 fragments "
                   "spliced into the nameserver's fragmented response (§II.A)")
    config_class = FragPoisoningConfig
    params = ("benign_server_count", "records_per_response", "nameserver_min_mtu",
              "accept_fragments", "checksum_oracle", "ipid_window", "starting_ipid",
              "attacker_record_count", "malicious_ttl", "defenses")
    # trigger_count/trigger_interval opt into the sustained-load profile
    # (the ``sustained_load`` matrix row); leaving them out keeps the
    # classic single-race run — and its pinned digests — untouched.
    optional = (*ATTACK_OPTIONAL_PARAMS, "trigger_count", "trigger_interval")

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = self.resolve(params)
        scenario = FragPoisoningScenario(self.build_config(seed, p))
        result = scenario.run()
        metrics = {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses),
            "cache_poisoned": result.cache_poisoned,
            "planted_fragments": result.planted_fragments,
            "poisoned_records_cached": result.poisoned_records_cached,
            "records_cached": result.records_cached,
        }
        if "trigger_count" in p:
            limiter = scenario.nameserver.rate_limiter
            metrics.update({
                "races_run": result.races_run,
                "races_poisoned": result.races_poisoned,
                "rrl_dropped": limiter.responses_dropped if limiter else 0,
                "rrl_slipped": limiter.responses_slipped if limiter else 0,
            })
        return metrics


@register_scenario
class DowngradeAttackExperiment(AttackAdapter):
    """The encrypted-transport downgrade vector: force plaintext, then poison."""

    name = "downgrade"
    description = ("SYN-flood downgrade of opportunistic encrypted DNS "
                   "followed by the classic fragmentation poisoning race")
    config_class = DowngradeConfig
    params = ("benign_server_count", "records_per_response", "nameserver_min_mtu",
              "syns_per_port", "flood_bursts", "flood_interval", "lookup_time",
              "ipid_window", "checksum_oracle", "attacker_record_count",
              "malicious_ttl", "defenses")

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        scenario = DowngradeScenario(self.build_config(seed, self.resolve(params)))
        result = scenario.run()
        return {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses),
            "cache_poisoned": result.cache_poisoned,
            "downgraded": result.downgraded,
            "encrypted_failures": result.encrypted_failures,
            "syns_sent": result.syns_sent,
            "syns_dropped": result.syns_dropped,
            "planted_fragments": result.planted_fragments,
            "poisoned_records_cached": result.poisoned_records_cached,
        }


@register_scenario
class DNSMeasurementExperiment:
    """The §II DNS ecosystem study (E4) as a registry experiment.

    Not an attack: one run generates a synthetic nameserver + resolver
    population for the given seed, executes the probe/classify pipeline and
    returns the published marginals — so sweeping the study across seeds
    through the runner yields confidence intervals on every fraction.
    """

    name = "dns_measurement"
    description = ("the §II companion measurement: nameserver fragmentation/"
                   "DNSSEC and resolver fragment-acceptance statistics (E4)")

    def default_params(self) -> dict[str, Any]:
        return {
            "nameserver_total": 30,
            "nameserver_fragmenting": 16,
            "resolver_total": 5000,
            "pair_sample": 200,
        }

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        # Imported here: the measurement layer is independent of the attack
        # scenarios this module otherwise wires up.
        from ..analysis.poisoning_vectors import vulnerable_pair_fraction
        from ..measurement.nameserver_study import run_nameserver_study
        from ..measurement.population import (
            generate_nameserver_population,
            generate_resolver_population,
        )
        from ..measurement.resolver_study import run_resolver_study

        p = merge_params(self.default_params(), params)
        nameservers = generate_nameserver_population(
            seed=seed, total=p["nameserver_total"],
            fragmenting=p["nameserver_fragmenting"])
        resolvers = generate_resolver_population(seed=seed, total=p["resolver_total"])
        ns_report = run_nameserver_study(nameservers)
        resolver_report = run_resolver_study(resolvers)
        return {
            "nameservers_fragmenting_without_dnssec": ns_report.fragmenting_without_dnssec,
            "nameservers_fragmenting": ns_report.fragmenting,
            "nameservers_dnssec": ns_report.dnssec_enabled,
            "accept_any_fraction": resolver_report.accept_any_fraction,
            "accept_minimum_fraction": resolver_report.accept_minimum_fraction,
            "triggerable_fraction": resolver_report.triggerable_fraction,
            "trigger_methods": dict(sorted(resolver_report.by_trigger_method.items())),
            "vulnerable_pair_fraction": vulnerable_pair_fraction(
                nameservers, resolvers[: p["pair_sample"]]),
        }


#: The one table of serving worlds: transport label -> testbed overrides.
#: ``tcp`` forces truncation so every lookup retries over the stream path;
#: the encrypted transports are provisioned by their defense.  Lookups are
#: 10 s apart, so ``dot_reused``'s idle timeout outlives the gap, while
#: ``dot_0rtt``'s short one makes every lookup resume from its ticket.
TRANSPORT_PROFILES: dict[str, dict[str, Any]] = {
    "udp": {},
    "tcp": {"nameserver_udp_payload_limit": 512, "nameserver_transports": ("tcp",)},
    "dot": {"defenses": ("encrypted_transport",)},
    "doh": {"defenses": ("encrypted_transport_doh",)},
    "dot_reused": {"defenses": (EncryptedTransport(reuse_connections=True,
                                                   idle_timeout=60.0),)},
    "dot_0rtt": {"defenses": (EncryptedTransport(zero_rtt=True, idle_timeout=5.0),)},
}


def time_lookups(transport: str, seed: int, queries: int,
                 benign_server_count: int = 50,
                 records_per_response: int = 30) -> tuple[Testbed, list[Optional[float]]]:
    """Build the attacker-free world for ``transport`` and time ``queries``
    cache-bypassing pool lookups, 10 simulated seconds apart.  Returns the
    testbed and each lookup's time from trigger to cache insertion (``None``
    when unanswered within 9 s)."""
    try:
        overrides = TRANSPORT_PROFILES[transport]
    except KeyError:
        raise ValueError(f"unknown transport {transport!r}; one of "
                         f"{sorted(TRANSPORT_PROFILES)}") from None
    testbed = build_testbed(TestbedConfig(
        seed=seed, benign_server_count=benign_server_count,
        records_per_response=records_per_response, with_attacker=False,
        **overrides))
    resolver, simulator = testbed.resolver, testbed.simulator
    answer_times: list[Optional[float]] = []
    for index in range(queries):
        at = index * 10.0
        # trigger_lookup bypasses the cache, so every query reaches the
        # nameserver; inserted_at >= at proves *this* query was answered
        # (peek would happily serve the previous query's entry).
        simulator.schedule_at(at, lambda: resolver.trigger_lookup("pool.ntp.org"))
        simulator.run(until=at + 9.0)
        entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
        answered = entry is not None and entry.inserted_at >= at
        answer_times.append(entry.inserted_at - at if answered else None)
    return testbed, answer_times


@register_scenario
class TransportOverheadExperiment:
    """Per-transport time-to-answer of cache-missing pool lookups.

    Not an attack: the measurement behind the report's transport-overhead
    curve.  :func:`time_lookups` times ``queries`` lookups in one world of
    :data:`TRANSPORT_PROFILES`, making the protocol's round trips visible
    (UDP one RTT; TCP one handshake more; DoT/DoH one TLS hello exchange on
    top).  Simulated-time figures: deterministic per ``(seed, params)``.
    """

    name = "transport_overhead"
    description = ("time-to-answer of cache-missing lookups per DNS "
                   "transport (udp/tcp/dot/doh handshake overhead)")

    def default_params(self) -> dict[str, Any]:
        return {
            "transport": "udp",
            "queries": 5,
            "benign_server_count": 50,
            "records_per_response": 30,
        }

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = merge_params(self.default_params(), params)
        testbed, times = time_lookups(
            p["transport"], seed, p["queries"],
            benign_server_count=p["benign_server_count"],
            records_per_response=p["records_per_response"])
        answer_times = [time for time in times if time is not None]
        mean = (sum(answer_times) / len(answer_times)) if answer_times else 0.0
        return {
            "transport": p["transport"],
            "queries": p["queries"],
            "unanswered": len(times) - len(answer_times),
            "mean_time_to_answer": mean,
            "max_time_to_answer": max(answer_times, default=0.0),
            # RTT multiples strip the latency constant out of the figure.
            "round_trips": mean / (2 * testbed.config.latency) if mean else 0.0,
        }
