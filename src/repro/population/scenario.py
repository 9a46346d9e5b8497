"""The ``population_sweep`` scenario: one fleet cohort per registry task.

A cohort is the unit of scheduling: ``population_specs`` slices a fleet of
``clients`` global ids into cohorts of at most ``cohort_size`` and returns
one :class:`~repro.experiments.runner.ExperimentSpec` whose ``param_sets``
are the cohort slices.  Each task streams its cohort through the
:class:`~repro.population.engine.FleetEngine` and returns *aggregates only*
(a few dozen numbers), so a million-client sweep materialises cohort
summaries — never per-client records — and rides the PR-3
:class:`~repro.experiments.scheduler.SweepScheduler` / RunCache machinery
unchanged.  Because every draw is keyed by global client id and resolver
poisoning is computed population-wide, the cohort decomposition does not
change any per-client outcome; :func:`combine_cohort_metrics` folds the
cohort records back into fleet-level totals.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import fields
from typing import Any, Optional

from ..core.pool_generation import RETIRED_POOL_PARAMS, reject_retired_pool_params
from ..core.selection import ChronosConfig
from ..experiments.registry import merge_params, register_scenario
from ..experiments.runner import ExperimentSpec
from .batch import FleetPolicy
from .engine import FleetConfig, FleetEngine


#: Config fields that are not flat scenario parameters (``clients`` is one,
#: but has no dataclass default; ``seed`` comes from the task).
NON_PARAM_FIELDS = frozenset({"clients", "seed", "explicit_starts", "policy", "chronos",
                              "defenses"})

#: Opt-in like an attack's ``faults``, so sweeps without it keep their digests.
OPTIONAL_PARAMS = ("defenses",)

#: The scenario defaults that differ from the dataclasses.  Metrics are
#: backend-independent; ``backend`` only selects the implementation.
PARAM_OVERRIDES = {"clients": 1000, "resolvers": 32, "backend": "auto"}

#: Every scenario parameter, grouped by the dataclass that declares it.
_SCHEMA = {config_class: tuple(spec for spec in fields(config_class)
                               if spec.name not in NON_PARAM_FIELDS)
           for config_class in (FleetConfig, FleetPolicy, ChronosConfig)}
_DEFAULTS = {**{spec.name: spec.default for specs in _SCHEMA.values() for spec in specs},
             **PARAM_OVERRIDES, **dict.fromkeys(RETIRED_POOL_PARAMS)}


def fleet_config_from_params(seed: int, p: Mapping[str, Any]) -> FleetConfig:
    """Build a :class:`FleetConfig` from flat scenario parameters."""
    values = {config_class: {spec.name: p[spec.name] for spec in specs}
              for config_class, specs in _SCHEMA.items()}
    return FleetConfig(clients=p["clients"], seed=seed,
                       policy=FleetPolicy(**values[FleetPolicy],
                                          defenses=tuple(p.get("defenses", ()))),
                       chronos=ChronosConfig(**values[ChronosConfig]),
                       **values[FleetConfig])


@register_scenario
class PopulationSweepExperiment:
    """Analytic fleet simulation of the §IV attack at population scale.

    Its parameters are the flattened fields of :class:`FleetConfig`,
    :class:`FleetPolicy` and :class:`ChronosConfig` (see :data:`PARAM_OVERRIDES`),
    plus ``defenses``, a tuple of the pool defenses the closed form models.
    """

    name = "population_sweep"
    description = ("vectorized Chronos fleet: staggered clients behind shared "
                   "resolvers, closed-form pools, two-point update rounds")

    def default_params(self) -> dict[str, Any]:
        return dict(_DEFAULTS)

    def optional_params(self) -> tuple[str, ...]:
        return OPTIONAL_PARAMS

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = merge_params(self.default_params(), params, optional=OPTIONAL_PARAMS)
        reject_retired_pool_params(p)
        return FleetEngine(fleet_config_from_params(seed, p)).run()


def population_specs(clients: int, cohort_size: int,
                     seeds: tuple[int, ...] = (1,),
                     base_params: Optional[Mapping[str, Any]] = None,
                     ) -> list[ExperimentSpec]:
    """Shard a fleet into cohort tasks for the :class:`SweepScheduler`.

    Returns a single spec whose ``param_sets`` cover global client ids
    ``[0, clients)`` in slices of at most ``cohort_size``, each pinned to the
    full ``population`` so poisoning propagation sees the whole fleet.
    """
    if clients < 0:
        raise ValueError("clients cannot be negative")
    if cohort_size < 1:
        raise ValueError("cohort_size must be at least 1")
    overlays: list[Mapping[str, Any]] = []
    for offset in range(0, max(clients, 1), cohort_size):
        size = min(cohort_size, clients - offset)
        if size <= 0:
            size, offset = clients, 0
        overlays.append({"clients": size, "client_offset": offset,
                         "population": clients})
    return [ExperimentSpec(scenario="population_sweep", seeds=tuple(seeds),
                           base_params=dict(base_params or {}),
                           param_sets=tuple(overlays))]


#: Metric keys that combine across cohorts by integer summation.
_SUM_KEYS = ("clients", "clients_poisoned", "pool_benign_total",
             "pool_malicious_total", "cache_hits_total",
             "clients_attacker_two_thirds", "updates_run_total",
             "panic_rounds_total", "clients_shift_achieved")
_FSUM_KEYS = ("attacker_fraction_sum", "achieved_shift_sum")


def combine_cohort_metrics(metrics: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold cohort aggregates (same fleet, same seed) into fleet totals."""
    cohorts = list(metrics)
    if not cohorts:
        return {}
    combined: dict[str, Any] = {key: sum(m[key] for m in cohorts)
                                for key in _SUM_KEYS if key in cohorts[0]}
    combined.update({key: math.fsum(m[key] for m in cohorts)
                     for key in _FSUM_KEYS if key in cohorts[0]})
    histogram = [0] * len(cohorts[0]["poison_histogram"])
    for m in cohorts:
        for index, count in enumerate(m["poison_histogram"]):
            histogram[index] += count
    combined["poison_histogram"] = histogram
    combined.update({key: cohorts[0][key]
                     for key in ("population", "resolvers", "poisoned_resolvers")})
    clients = combined["clients"]
    if clients:
        combined["mean_attacker_fraction"] = (
            combined["attacker_fraction_sum"] / clients)
        if "achieved_shift_sum" in combined:
            combined["mean_achieved_shift"] = (
                combined["achieved_shift_sum"] / clients)
    return combined
