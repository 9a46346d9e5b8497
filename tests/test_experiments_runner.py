"""Tests for the unified experiment engine: testbed, registry, runner, results.

The two contracts the engine guarantees:

* **determinism** — a sweep is a pure function of its spec; a parallel run is
  bit-for-bit identical to a sequential one, and to the concatenation of the
  corresponding single-seed runs;
* **uniformity** — every attack scenario is runnable by name with a flat
  config dict, and unknown parameters are rejected rather than ignored.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    RunRecord,
    SweepScheduler,
    TestbedConfig,
    available_scenarios,
    build_testbed,
    get_scenario,
    merge_params,
    run_scenario,
    wilson_interval,
)

ALL_SCENARIOS = {"chronos_pool_attack", "traditional_client_attack",
                 "bgp_hijack", "frag_poisoning"}

#: Cheap parameters so packet-level sweeps stay fast in the tier-1 suite.
FAST_POOL_PARAMS = {"benign_server_count": 30, "run_time_shift": False}

#: Per-scenario overrides that keep a single smoke run cheap.
CHEAP_PARAMS = {
    "chronos_pool_attack": FAST_POOL_PARAMS,
    "traditional_client_attack": {"benign_server_count": 10, "poll_rounds": 2},
    "bgp_hijack": {"benign_server_count": 10},
    "frag_poisoning": {"benign_server_count": 40},
}


# -- registry ---------------------------------------------------------------------

def test_registry_lists_all_four_attack_scenarios():
    scenarios = available_scenarios()
    assert ALL_SCENARIOS <= set(scenarios)
    assert all(description for description in scenarios.values())


def test_registry_lookup_and_config_roundtrip():
    """Every scenario's full default config round-trips through merge_params."""
    for name in ALL_SCENARIOS:
        scenario = get_scenario(name)
        assert scenario.name == name
        defaults = scenario.default_params()
        assert merge_params(defaults, {}) == defaults
        assert merge_params(defaults, dict(defaults)) == defaults


def test_registry_rejects_unknown_scenario_and_parameter():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no_such_attack")
    with pytest.raises(ValueError, match="unknown scenario parameter"):
        run_scenario("bgp_hijack", 1, {"no_such_knob": 1})


#: Registers the experiments' built-ins by import, fails the first lookup's
#: import of the population module once, then looks up again.
_FAILED_IMPORT_PROBE = """
import importlib
import repro.experiments.scenarios
from repro.experiments.registry import get_scenario

real_import = importlib.import_module

def import_failing_once(name, *args):
    if name == "repro.population.scenario":
        importlib.import_module = real_import
        raise ImportError("injected")
    return real_import(name, *args)

importlib.import_module = import_failing_once
try:
    get_scenario("chronos_pool_attack")
except ImportError:
    pass
print(get_scenario("chronos_pool_attack").name)
"""


def test_registry_recovers_from_a_failed_builtin_import():
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
         + _FAILED_IMPORT_PROBE], capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["chronos_pool_attack"]


def test_every_scenario_runs_by_name_with_a_config_dict():
    for name in sorted(ALL_SCENARIOS):
        metrics = run_scenario(name, 2, CHEAP_PARAMS[name])
        assert isinstance(metrics["attack_succeeded"], bool)


# -- runner determinism ------------------------------------------------------------

def test_parallel_two_seed_sweep_matches_sequential_bit_for_bit():
    spec = ExperimentSpec("chronos_pool_attack", seeds=(3, 4),
                          base_params=FAST_POOL_PARAMS)
    (sequential,), _ = SweepScheduler(workers=1).run_specs([spec])
    (parallel,), _ = SweepScheduler(workers=2).run_specs([spec])
    assert sequential.records == parallel.records
    assert sequential.digest() == parallel.digest()
    assert sequential.to_json() == parallel.to_json()


def test_parallel_sweep_equals_two_single_seed_runs():
    singles, _ = SweepScheduler().run_specs([
        ExperimentSpec("chronos_pool_attack", seeds=(seed,),
                       base_params=FAST_POOL_PARAMS)
        for seed in (3, 4)])
    (swept,), _ = SweepScheduler(workers=2).run_specs([ExperimentSpec(
        "chronos_pool_attack", seeds=(3, 4), base_params=FAST_POOL_PARAMS)])
    assert swept.records == singles[0].records + singles[1].records


def test_same_spec_runs_are_reproducible():
    """Regression for the randomness audit: nothing outside the seeded RNGs."""
    spec = ExperimentSpec(scenario="traditional_client_attack", seeds=(5, 6, 7))
    (first,), _ = SweepScheduler().run_specs([spec])
    (second,), _ = SweepScheduler().run_specs([spec])
    assert first.digest() == second.digest()


def test_records_carry_fully_resolved_params():
    (result,), _ = SweepScheduler().run_specs([ExperimentSpec(
        "bgp_hijack", seeds=(1,), base_params={"hijack_duration": 10.0})])
    record = result.records[0]
    assert record.params["hijack_duration"] == 10.0
    # Defaults are materialised into the record, not left implicit.
    assert set(get_scenario("bgp_hijack").default_params()) <= set(record.params)


# -- grid expansion ----------------------------------------------------------------

def test_grid_expands_cartesian_in_declaration_order():
    spec = ExperimentSpec(scenario="chronos_pool_attack", seeds=(1, 2),
                          grid={"poison_at_query": [1, 3], "malicious_ttl": [300]})
    tasks = spec.tasks()
    assert len(tasks) == 4
    assert [(params["poison_at_query"], seed) for _, seed, params in tasks] == \
        [(1, 1), (1, 2), (3, 1), (3, 2)]


def test_param_sets_and_grid_are_mutually_exclusive():
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="bgp_hijack", seeds=(1,),
                       grid={"lookup_time": [1.0]},
                       param_sets=({"lookup_time": 2.0},))


@pytest.mark.parametrize("seeds, match", [
    ((1, 1), "distinct ints"),
    ((True,), "distinct ints"),
    ((1.0, 2), "distinct ints"),
    ((), "must not be empty"),
])
def test_runner_rejects_bad_seed_lists(seeds, match):
    with pytest.raises(ValueError, match=match):
        ExperimentSpec("bgp_hijack", seeds=seeds)


@pytest.mark.parametrize("shape", [
    {"grid": {"lookup_time": []}},
    {"grid": {"lookup_time": [1.0], "benign_server_count": []}},
    {"param_sets": []},
])
def test_sweep_expanding_to_zero_parameter_sets_is_rejected(shape):
    with pytest.raises(ValueError, match="zero parameter sets"):
        ExperimentSpec("bgp_hijack", seeds=(1,), **shape)


def test_hijack_window_decides_the_bgp_outcome():
    results, _ = SweepScheduler().run_specs([
        ExperimentSpec("bgp_hijack", seeds=(1, 2),
                       base_params={"benign_server_count": 10,
                                    "hijack_duration": duration})
        for duration in (0.0, 30.0)])
    # No hijack window -> the benign lookup cannot be poisoned.
    assert [result.success_rate() for result in results] == [0.0, 1.0]


def test_grid_spec_runs_every_cell_with_seeds_innermost():
    (result,), stats = SweepScheduler().run_specs([ExperimentSpec(
        "bgp_hijack", seeds=(1, 2), grid={"hijack_duration": [0.0, 30.0]},
        base_params={"benign_server_count": 10})])
    assert stats.tasks_total == 4
    assert [(record.params["hijack_duration"], record.seed)
            for record in result.records] == [(0.0, 1), (0.0, 2), (30.0, 1), (30.0, 2)]
    assert [record.metrics["attack_succeeded"] for record in result.records] == [
        False, False, True, True]


# -- aggregates --------------------------------------------------------------------

def _synthetic_result() -> ExperimentResult:
    records = [
        RunRecord(scenario="s", seed=seed, params={},
                  metrics={"attack_succeeded": seed % 2 == 0,
                           "achieved_shift": float(seed)})
        for seed in range(1, 5)
    ]
    return ExperimentResult(scenario="s", records=records)


def test_success_rate_mean_median_aggregates():
    result = _synthetic_result()
    assert result.success_rate() == 0.5
    assert result.mean("achieved_shift") == 2.5
    assert result.median("achieved_shift") == 2.5
    interval = result.mean_interval("achieved_shift")
    assert interval.low < 2.5 < interval.high


def test_wilson_interval_properties():
    all_success = wilson_interval(10, 10)
    assert all_success.high == 1.0 and all_success.low > 0.6
    none = wilson_interval(0, 10)
    assert none.low == 0.0 and none.high < 0.4
    half = wilson_interval(5, 10)
    assert half.low < 0.5 < half.high
    wider = wilson_interval(5, 10, confidence=0.99)
    assert wider.width > half.width
    with pytest.raises(ValueError):
        wilson_interval(3, 0)


# -- testbed builder ---------------------------------------------------------------

def test_testbed_builder_is_deterministic():
    first = build_testbed(TestbedConfig(seed=9, benign_server_count=12))
    second = build_testbed(TestbedConfig(seed=9, benign_server_count=12))
    assert list(first.benign_clock_errors.items()) == \
        list(second.benign_clock_errors.items())
    other_seed = build_testbed(TestbedConfig(seed=10, benign_server_count=12))
    assert list(first.benign_clock_errors) == list(other_seed.benign_clock_errors)
    assert list(first.benign_clock_errors.values()) != \
        list(other_seed.benign_clock_errors.values())


def test_testbed_attacker_and_hijacker_are_optional():
    bare = build_testbed(TestbedConfig(seed=1, benign_server_count=5,
                                       with_attacker=False))
    assert bare.attacker is None and bare.hijacker is None
    no_hijack = build_testbed(TestbedConfig(seed=1, benign_server_count=5,
                                            with_hijacker=False))
    assert no_hijack.attacker is not None and no_hijack.hijacker is None


def test_testbed_victim_factory_attaches_victim():
    seen = {}

    def factory(testbed):
        seen["resolver"] = testbed.resolver
        return "victim-sentinel"

    testbed = build_testbed(TestbedConfig(seed=1, benign_server_count=5),
                            victim_factory=factory)
    assert testbed.victim == "victim-sentinel"
    assert seen["resolver"] is testbed.resolver
