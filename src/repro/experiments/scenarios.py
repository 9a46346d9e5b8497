"""The built-in scenarios: five attacks and two measurements, by registry name.

Each scenario's parameter schema is its config dataclass: every field but
``seed`` is a parameter with the dataclass default, so the direct path
(``FragPoisoningScenario(FragPoisoningConfig(seed=1)).run()``) and the
registry path (``run_scenario("frag_poisoning", 1)``) run the same thing.
A field marked :data:`~repro.experiments.registry.OPT_IN` (``faults``,
``trigger_count``, ``trigger_interval``) is accepted but left out of
``default_params()``, so sweeps that never set it keep their resolved
params, digests and cache keys.  Conventions shared by the attack
scenarios' metric dicts so sweeps aggregate uniformly:

* ``attack_succeeded`` — the scenario's headline success criterion (bool);
* ``achieved_shift`` — the clock error reached on the victim, where the
  scenario has a time-shifting phase (seconds);
* ``defenses`` — every attack scenario accepts a tuple of defense registry
  names (see :mod:`repro.defenses`) stacked onto the victim, and reports
  ``defense_rejections`` (defense name -> rejected responses/samples).

Importing this module registers the scenarios; the registry does so lazily
on first lookup.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Optional

from ..attacks.baseline_scenario import BaselineAttackConfig, TraditionalClientAttackScenario
from ..attacks.bgp_hijack import BGPHijackConfig, BGPHijackScenario
from ..attacks.chronos_pool_attack import ChronosPoolAttackScenario, PoolAttackConfig
from ..attacks.downgrade import DowngradeConfig, DowngradeScenario
from ..attacks.frag_poisoning import FragPoisoningConfig, FragPoisoningScenario
from ..defenses.transport import EncryptedTransport
from ..dns.records import RecordType
from .registry import OPT_IN, merge_params, register_scenario
from .testbed import DEFAULT_ZONE, LATENCY, Testbed, TestbedConfig, build_testbed


class ConfigScenario:
    """A registry scenario whose parameter schema is its ``config_class``.

    An attack scenario also names its ``scenario_class``, built from the
    config and run with no arguments; a measurement scenario overrides
    ``run``.
    """

    config_class: ClassVar[type]
    scenario_class: ClassVar[type]

    def __init__(self) -> None:
        specs = [spec for spec in fields(self.config_class) if spec.name != "seed"]
        defaults = self.config_class()
        self._seeded = len(specs) < len(fields(self.config_class))
        self._optional = tuple(spec.name for spec in specs if spec.metadata == OPT_IN)
        self._defaults = {spec.name: getattr(defaults, spec.name)
                          for spec in specs if spec.name not in self._optional}

    def default_params(self) -> dict[str, Any]:
        return dict(self._defaults)

    def optional_params(self) -> tuple[str, ...]:
        return self._optional

    def config(self, seed: int, params: Mapping[str, Any]) -> Any:
        """The config of one run: ``params`` over the defaults, unknown keys rejected."""
        p = merge_params(self._defaults, params, self._optional)
        if "defenses" in p:
            p["defenses"] = tuple(p["defenses"])
        if "faults" in p:
            p["faults"] = tuple(p["faults"] or ())
        return self.config_class(seed=seed, **p) if self._seeded else self.config_class(**p)

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        return self.scenario_class(self.config(seed, params)).run()


@register_scenario
class ChronosPoolAttackExperiment(ConfigScenario):
    """Figure 1 end to end: poison the pool generation, then shift the clock."""

    name = "chronos_pool_attack"
    description = ("DNS poisoning of Chronos' 24-query pool generation "
                   "followed by the time-shifting phase (§IV)")
    config_class = PoolAttackConfig
    scenario_class = ChronosPoolAttackScenario


@register_scenario
class TraditionalClientAttackExperiment(ConfigScenario):
    """The baseline comparison: poison a plain NTP client's one DNS lookup."""

    name = "traditional_client_attack"
    description = ("DNS poisoning of a traditional NTP client's start-up "
                   "resolution followed by time shifting (E6/E9 baseline)")
    config_class = BaselineAttackConfig
    scenario_class = TraditionalClientAttackScenario


@register_scenario
class BGPHijackExperiment(ConfigScenario):
    """The prefix-hijack poisoning vector on its own (§II)."""

    name = "bgp_hijack"
    description = ("cache poisoning of the victim resolver via a BGP "
                   "more-specific hijack of the nameserver prefix (§II)")
    config_class = BGPHijackConfig
    scenario_class = BGPHijackScenario


@register_scenario
class FragPoisoningExperiment(ConfigScenario):
    """The defragmentation-cache injection poisoning vector (§II.A)."""

    name = "frag_poisoning"
    description = ("cache poisoning via spoofed trailing IPv4 fragments "
                   "spliced into the nameserver's fragmented response (§II.A)")
    config_class = FragPoisoningConfig
    scenario_class = FragPoisoningScenario


@register_scenario
class DowngradeAttackExperiment(ConfigScenario):
    """The encrypted-transport downgrade vector: force plaintext, then poison."""

    name = "downgrade"
    description = ("SYN-flood downgrade of opportunistic encrypted DNS "
                   "followed by the classic fragmentation poisoning race")
    config_class = DowngradeConfig
    scenario_class = DowngradeScenario


@dataclass(frozen=True)
class DNSMeasurementConfig:
    """Population sizes of one §II measurement run."""

    nameserver_total: int = 30
    nameserver_fragmenting: int = 16
    resolver_total: int = 5000
    #: Resolvers paired with every nameserver for the vulnerable-pair fraction.
    pair_sample: int = 200


@register_scenario
class DNSMeasurementExperiment(ConfigScenario):
    """The §II DNS ecosystem study (E4) as a registry experiment.

    Not an attack: one run generates a synthetic nameserver + resolver
    population for the given seed, executes the probe/classify pipeline and
    returns the published marginals — so sweeping the study across seeds
    through the runner yields confidence intervals on every fraction.
    """

    name = "dns_measurement"
    description = ("the §II companion measurement: nameserver fragmentation/"
                   "DNSSEC and resolver fragment-acceptance statistics (E4)")
    config_class = DNSMeasurementConfig

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

        config = self.config(seed, params)
        nameservers = generate_nameserver_population(
            seed=seed, total=config.nameserver_total,
            fragmenting=config.nameserver_fragmenting)
        resolvers = generate_resolver_population(seed=seed, total=config.resolver_total)
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
                nameservers, resolvers[: config.pair_sample]),
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


@dataclass(frozen=True)
class TransportOverheadConfig:
    """One world of :data:`TRANSPORT_PROFILES` and the lookups timed in it."""

    transport: str = "udp"
    queries: int = 5
    benign_server_count: int = 50
    records_per_response: int = 30


def time_lookups(config: TransportOverheadConfig,
                 seed: int) -> tuple[Testbed, list[Optional[float]]]:
    """Build the attacker-free world for ``config.transport`` and time
    ``config.queries`` cache-bypassing pool lookups, 10 simulated seconds
    apart.  Returns the testbed and each lookup's time from trigger to cache
    insertion (``None`` when unanswered within 9 s)."""
    try:
        overrides = TRANSPORT_PROFILES[config.transport]
    except KeyError:
        raise ValueError(f"unknown transport {config.transport!r}; one of "
                         f"{sorted(TRANSPORT_PROFILES)}") from None
    testbed = build_testbed(TestbedConfig(
        seed=seed, benign_server_count=config.benign_server_count,
        records_per_response=config.records_per_response, with_attacker=False,
        **overrides))
    resolver, simulator = testbed.resolver, testbed.simulator
    answer_times: list[Optional[float]] = []
    for index in range(config.queries):
        at = index * 10.0
        # trigger_lookup bypasses the cache, so every query reaches the
        # nameserver; inserted_at >= at proves *this* query was answered
        # (peek would happily serve the previous query's entry).
        simulator.schedule_at(at, lambda: resolver.trigger_lookup(DEFAULT_ZONE))
        simulator.run(until=at + 9.0)
        entry = resolver.cache.peek(DEFAULT_ZONE, RecordType.A)
        answered = entry is not None and entry.inserted_at >= at
        answer_times.append(entry.inserted_at - at if answered else None)
    return testbed, answer_times


@register_scenario
class TransportOverheadExperiment(ConfigScenario):
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
    config_class = TransportOverheadConfig

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        config = self.config(seed, params)
        testbed, times = time_lookups(config, seed)
        answer_times = [time for time in times if time is not None]
        mean = (sum(answer_times) / len(answer_times)) if answer_times else 0.0
        return {
            "transport": config.transport,
            "queries": config.queries,
            "unanswered": len(times) - len(answer_times),
            "mean_time_to_answer": mean,
            "max_time_to_answer": max(answer_times, default=0.0),
            # RTT multiples strip the latency constant out of the figure.
            "round_trips": mean / (2 * LATENCY) if mean else 0.0,
        }
