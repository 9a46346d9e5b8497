"""Tests for the fleet engine and its scheduler/registry integration.

Contracts: resolver poisoning follows the documented renewal walk
(hand-computed fixtures), per-client outcomes are invariant under cohort
sharding and identical across backends, and the ``population_sweep``
scenario rides the shared scheduler with byte-identical digests across
worker counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import pytest

from repro.experiments import SweepScheduler
from repro.experiments.pins import FLEET_SWEEP_DIGEST, FLEET_SWEEP_METRICS_DIGEST
from repro.experiments.registry import get_scenario, merge_params
from repro.experiments.runner import run_scenario
from repro.population.batch import FleetPolicy
from repro.population.engine import (
    FleetConfig,
    FleetEngine,
    cohort_poison_queries,
    resolver_poison_times,
)
from repro.population.rng import numpy_or_none
from repro.population.scenario import combine_cohort_metrics, population_specs

numpy = numpy_or_none()

#: A stochastic fleet small enough for the pure-python path: staggered
#: clients share resolvers, the hijack window catches some of them mid-pool.
STOCHASTIC = FleetConfig(
    clients=300,
    resolvers=7,
    seed=5,
    stagger_window=86400.0,
    policy=FleetPolicy(),
    hijack_start=90000.0,
    hijack_duration=600.0,
    target_shift=600.0,
    update_rounds=3,
    backend="python",
)


def config_with(base: FleetConfig, **overrides) -> FleetConfig:
    fields = {name: getattr(base, name) for name in (
        "clients", "resolvers", "client_offset", "population", "seed",
        "stagger_window", "explicit_starts", "policy", "chronos",
        "hijack_start", "hijack_duration", "run_time_shift", "target_shift",
        "update_rounds", "backend")}
    fields.update(overrides)
    return FleetConfig(**fields)


# -- renewal walk ------------------------------------------------------------

def walk_fixture(start_b: float, backend: str) -> FleetConfig:
    """Two clients, one resolver; client A renews the cache at t=89600."""
    return FleetConfig(
        clients=2,
        resolvers=1,
        seed=0,
        explicit_starts=(53600.0, start_b),
        policy=FleetPolicy(benign_ttl=150),
        hijack_start=89700.0,
        hijack_duration=600.0,
        run_time_shift=False,
        backend=backend,
    )


@pytest.mark.parametrize("backend", ["python"] + (["numpy"] if numpy else []))
def test_benign_cache_masks_inwindow_query(backend):
    # A's query 11 lands at 89600 (< hijack start) and caches until 89750;
    # B's query 11 at 89720 is inside the hijack window but served from the
    # benign cache — the resolver is never poisoned.
    config = walk_fixture(53720.0, backend)
    engine = FleetEngine(config)
    assert resolver_poison_times(config, engine.np) == {}
    metrics = engine.run()
    assert metrics["poisoned_resolvers"] == 0
    assert metrics["clients_poisoned"] == 0
    assert metrics["pool_malicious_total"] == 0
    assert metrics["pool_benign_total"] == 2 * 24 * 4


@pytest.mark.parametrize("backend", ["python"] + (["numpy"] if numpy else []))
def test_first_uncached_miss_poisons_the_resolver(backend):
    # B's query 11 now lands at 89800 — past the cached entry's 89750 expiry
    # — so the resolver is poisoned there; A is hit from its query 12 on.
    config = walk_fixture(53800.0, backend)
    engine = FleetEngine(config)
    assert resolver_poison_times(config, engine.np) == {0: 89800.0}
    _, ks, _ = cohort_poison_queries(config, engine.np)
    assert list(ks) == [12, 11]
    metrics = engine.run()
    assert metrics["poisoned_resolvers"] == 1
    assert metrics["clients_poisoned"] == 2
    assert metrics["poison_histogram"][12] == 1
    assert metrics["poison_histogram"][11] == 1


def test_poison_map_is_population_wide_not_cohort_wide():
    # A cohort covering only client 0 must still see the resolver poisoned
    # by client 1's query.
    full = walk_fixture(53800.0, "python")
    cohort = config_with(full, clients=1, client_offset=0, population=2)
    engine = FleetEngine(cohort)
    assert resolver_poison_times(cohort, engine.np) == {0: 89800.0}
    _, ks, _ = cohort_poison_queries(cohort, engine.np)
    assert list(ks) == [12]


@pytest.mark.parametrize("backend", ["python"] + (["numpy"] if numpy else []))
def test_zero_target_shift_is_never_achieved(backend):
    # The packet scenarios' rule: a zero target is never reached, even though
    # every client's clock error (0) is trivially "at least half" of it.
    config = config_with(STOCHASTIC, clients=50, target_shift=0.0, backend=backend)
    metrics, records = FleetEngine(config).run_detailed()
    assert metrics["clients_shift_achieved"] == 0
    assert len(records) == 50
    assert all(record["shift_achieved"] is False for record in records)
    assert FleetEngine(config).run() == metrics
    swept = run_scenario("population_sweep", 5, {"clients": 50, "target_shift": 0.0})
    assert swept["clients_shift_achieved"] == 0


# -- backend parity and cohort invariance ------------------------------------

@pytest.mark.skipif(numpy is None, reason="numpy not installed")
def test_backend_parity_on_stochastic_aggregates():
    py_metrics = FleetEngine(STOCHASTIC).run()
    np_metrics = FleetEngine(config_with(STOCHASTIC, backend="numpy")).run()
    assert py_metrics == np_metrics  # exact, floats included
    assert py_metrics["clients_poisoned"] > 0
    assert py_metrics["panic_rounds_total"] > 0


@pytest.mark.skipif(numpy is None, reason="numpy not installed")
def test_backend_parity_on_detailed_records():
    py_detail = FleetEngine(config_with(STOCHASTIC, clients=64)).run_detailed()
    np_detail = FleetEngine(config_with(STOCHASTIC, clients=64,
                                        backend="numpy")).run_detailed()
    assert py_detail == np_detail


def typed(value: Any) -> Any:
    """``value`` with every leaf tagged by its type and repr, so ``==`` also
    compares types and the sign of a zero."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [typed(item) for item in value]
    return type(value).__name__, repr(value)


#: name -> overrides of ``STOCHASTIC`` for the backend differential.
DIFFERENTIAL_CASES = {
    "stochastic": {"clients": 120},
    # Unpoisoned clients get an empty pool; late-poisoned ones a pool too
    # small to sample (3, 6 or 9 addresses), so every round panics.
    "empty_and_tiny_pools": {"policy": FleetPolicy(benign_per_response=0, attacker_records=3)},
    "zero_target": {"clients": 120, "target_shift": 0.0},
    "negative_target": {"clients": 120, "target_shift": -600.0},
    # Inside the agreement window mixed samples pass too: seven distinct
    # shifts, whose naive float sum is off by an ulp.
    "small_negative_target": {"clients": 120, "seed": 3, "target_shift": -0.001},
    # Two benign queries leave 8 servers: every round panics to -0.0.
    "negative_target_signed_zeros": {"target_shift": -600.0,
                                     "policy": FleetPolicy(query_count=2)},
    "one_client_cohort": {"clients": 1, "client_offset": 37, "population": 300},
    "offset_cohort": {"clients": 100, "client_offset": 150, "population": 300},
    "no_clients": {"clients": 0, "population": 300},
}


@pytest.mark.skipif(numpy is None, reason="numpy not installed")
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_backends_agree_in_value_and_type(case):
    python = config_with(STOCHASTIC, **DIFFERENTIAL_CASES[case])
    vectorized = config_with(python, backend="numpy")
    metrics, records = FleetEngine(python).run_detailed()
    assert typed(FleetEngine(vectorized).run()) == typed(metrics)
    assert typed(FleetEngine(vectorized).run_detailed()) == typed((metrics, records))
    assert typed(FleetEngine(python).run()) == typed(metrics)
    # The (value, count) fold is the correctly rounded sum of every shift.
    assert repr(metrics["achieved_shift_sum"]) == repr(
        math.fsum(record["achieved_shift"] for record in records))
    assert len(records) == python.clients
    assert [record["client"] for record in records] == list(
        range(python.client_offset, python.client_offset + python.clients))


def test_differential_cases_reach_the_edges_they_name():
    def records(case):
        return FleetEngine(config_with(STOCHASTIC, **DIFFERENTIAL_CASES[case])).run_detailed()

    metrics, tiny = records("empty_and_tiny_pools")
    assert {0, 3} <= {record["pool_size"] for record in tiny}
    assert any(record["updates_run"] == 0 for record in tiny)
    metrics, zeros = records("negative_target_signed_zeros")
    assert all(math.copysign(1.0, record["achieved_shift"]) == -1.0 for record in zeros)
    assert repr(metrics["achieved_shift_sum"]) == "0.0"  # math.fsum's zero, as before
    metrics, _ = records("negative_target")
    assert metrics["achieved_shift_sum"] < 0 and metrics["clients_shift_achieved"] > 0


# -- pinned fleet sweeps ------------------------------------------------------

#: perfbench's ``fleet`` parameters, less the backend.
FLEET_SWEEP_PARAMS = {"resolvers": 1024, "stagger_window": 86400.0, "update_rounds": 5}


def fleet_sweep(clients: int, cohort_size: int, backend: str):
    specs = population_specs(clients=clients, cohort_size=cohort_size, seeds=(1,),
                             base_params={**FLEET_SWEEP_PARAMS, "backend": backend})
    (result,), _ = SweepScheduler(workers=1).run_specs(specs)
    return result


@pytest.mark.skipif(numpy is None, reason="numpy not installed")
def test_million_client_fleet_sweep_is_pinned():
    digest = fleet_sweep(1_000_000, 125_000, "numpy").digest()
    assert digest == FLEET_SWEEP_DIGEST, (
        f"fleet sweep digest moved: {digest} (pinned {FLEET_SWEEP_DIGEST})")


@pytest.mark.parametrize("backend", ["python"] + (["numpy"] if numpy else []))
def test_reduced_fleet_sweep_metrics_are_pinned_on_every_backend(backend):
    result = fleet_sweep(10_000, 2_500, backend)
    metrics = json.dumps([record.metrics for record in result.records], sort_keys=True)
    assert hashlib.sha256(metrics.encode()).hexdigest() == FLEET_SWEEP_METRICS_DIGEST


@pytest.mark.skipif(numpy is None, reason="numpy not installed")
def test_fleet_sweep_records_differ_across_backends_only_in_the_backend_param():
    python = fleet_sweep(10_000, 2_500, "python")
    for record in python.records:
        record.params["backend"] = "numpy"
    assert python.digest() == fleet_sweep(10_000, 2_500, "numpy").digest()


def test_cohort_sharding_is_invisible():
    full_metrics, full_records = FleetEngine(STOCHASTIC).run_detailed()
    shard_records = []
    shard_metrics = []
    for offset in range(0, STOCHASTIC.clients, 77):
        size = min(77, STOCHASTIC.clients - offset)
        cohort = config_with(STOCHASTIC, clients=size, client_offset=offset,
                             population=STOCHASTIC.clients)
        metrics, records = FleetEngine(cohort).run_detailed()
        shard_metrics.append(metrics)
        shard_records.extend(records)
    assert shard_records == full_records  # per-client outcomes, floats exact
    combined = combine_cohort_metrics(shard_metrics)
    for key, value in combined.items():
        if key not in ("clients",):
            assert value == pytest.approx(full_metrics[key]), key
    assert combined["clients"] == full_metrics["clients"]


def test_empty_and_unpoisoned_edges():
    config = config_with(STOCHASTIC, clients=0, population=300)
    metrics = FleetEngine(config).run()
    assert metrics["clients"] == 0
    assert metrics["mean_attacker_fraction"] == 0.0
    # Hijack before any client activity: nobody is poisoned, every client
    # still completes its update rounds against a clean pool.
    clean = config_with(STOCHASTIC, clients=10, population=None,
                        hijack_start=-10_000.0)
    clean_metrics = FleetEngine(clean).run()
    assert clean_metrics["clients_poisoned"] == 0
    assert clean_metrics["panic_rounds_total"] == 0
    assert clean_metrics["updates_run_total"] == 10 * (STOCHASTIC.update_rounds + 1)
    assert clean_metrics["achieved_shift_sum"] == 0.0


# -- registry + scheduler integration ---------------------------------------

def test_population_scenario_is_registered():
    scenario = get_scenario("population_sweep")
    defaults = scenario.default_params()
    assert defaults["clients"] == 1000
    with pytest.raises(ValueError):
        merge_params(defaults, {"not_a_knob": 1})


def test_population_scenario_runs_by_name():
    metrics = run_scenario("population_sweep", 5, {
        "clients": 50, "resolvers": 7, "update_rounds": 2,
        "backend": "python"})
    assert metrics["clients"] == 50
    assert metrics["population"] == 50
    assert sum(metrics["poison_histogram"]) == 50


def test_population_scenario_takes_defenses_like_every_attack():
    scenario = get_scenario("population_sweep")
    assert "defenses" not in scenario.default_params()
    assert scenario.optional_params() == ("defenses",)
    base = {"clients": 50, "resolvers": 7, "update_rounds": 2, "backend": "python"}
    undefended = run_scenario("population_sweep", 5, base)
    assert undefended["pool_malicious_total"] > 0
    defended = run_scenario("population_sweep", 5, {**base, "defenses": ["ttl_discard"]})
    assert defended["pool_malicious_total"] == 0
    assert defended["clients_attacker_two_thirds"] == 0
    with pytest.raises(ValueError, match="cannot model"):
        run_scenario("population_sweep", 5, {**base, "defenses": ("multi_vantage",)})
    with pytest.raises(ValueError, match="retired"):
        run_scenario("population_sweep", 5, {**base, "max_accepted_ttl": 3600})


def test_population_specs_cover_the_fleet_in_cohorts():
    (spec,) = population_specs(clients=250, cohort_size=100, seeds=(1, 2))
    overlays = spec.parameter_sets()
    assert [(o["client_offset"], o["clients"]) for o in overlays] == [
        (0, 100), (100, 100), (200, 50)]
    assert all(o["population"] == 250 for o in overlays)
    assert len(spec.tasks()) == 6  # 3 cohorts x 2 seeds


def test_sharded_sweep_digest_is_worker_count_stable(pool_cpus):
    base = {"resolvers": 7, "update_rounds": 2, "backend": "python"}
    specs = population_specs(clients=120, cohort_size=30, seeds=(3,),
                             base_params=base)
    (inline_result,), inline_stats = SweepScheduler(workers=1).run_specs(specs)
    (pooled_result,), pooled_stats = SweepScheduler(workers=2).run_specs(specs)
    assert inline_stats.executed_inline
    assert not pooled_stats.executed_inline
    assert inline_result.digest() == pooled_result.digest()
    combined = combine_cohort_metrics(
        [record.metrics for record in inline_result.records])
    assert combined["clients"] == 120
    # The sharded fleet reproduces the unsharded engine's totals.
    single = run_scenario("population_sweep", 3, {**base, "clients": 120})
    for key in ("clients_poisoned", "pool_malicious_total",
                "panic_rounds_total", "achieved_shift_sum"):
        assert combined[key] == single[key]
