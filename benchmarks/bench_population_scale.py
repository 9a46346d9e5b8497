"""E-population: a million Chronos clients per sweep, with determinism gates.

Three measurements over the ``population_sweep`` scenario:

1. **vectorized fleet** — the full fleet (default 10⁶ clients) sharded into
   cohorts on the shared :class:`SweepScheduler` at ``workers=1``, with a
   clients/sec trajectory sampled from the scheduler's ``on_progress``
   callback;
2. **worker stability** — the identical cohort stream at ``workers=4``
   (pooled path) must produce a byte-identical
   :class:`ExperimentResult` digest;
3. **packet baseline** — a few packet-level ``chronos_pool_attack`` runs
   (the testbed simulates one victim per run), timing the per-client cost
   the fleet engine replaces.

Gates:

* vectorized rate ≥ ``POPULATION_MIN_RATE`` clients/sec (default 10⁵; the
  packet baseline sits around 10¹–10² — a 10³–10⁴× scale-out);
* ``workers=1`` and ``workers=4`` digests byte-identical;
* fleet totals are self-consistent (histogram sums to the population).

The measurements are written to ``BENCH_population_scale.json``
so CI can archive the run.  Reduced CI
form: ``POPULATION_SCALE_CLIENTS`` / ``POPULATION_MIN_RATE``.  The numpy
backend is required for the rate gate (the pure-python fallback is for
digest parity, not speed) — the benchmark skips without it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest
from conftest import emit

from repro.experiments import SweepScheduler
from repro.experiments.runner import run_scenario
from repro.population.rng import numpy_or_none
from repro.population.scenario import combine_cohort_metrics, population_specs

CLIENTS = int(os.environ.get("POPULATION_SCALE_CLIENTS", "1000000"))
COHORT = max(1, CLIENTS // 8)  # 8 cohorts: exercises the pooled path
MIN_RATE = float(os.environ.get("POPULATION_MIN_RATE", "100000"))
PACKET_RUNS = 3
SEED = 1

FLEET_PARAMS = {
    "resolvers": 1024,
    "stagger_window": 86400.0,
    "update_rounds": 5,
    "backend": "auto",
}


def run_fleet(workers: int, trajectory=None):
    specs = population_specs(clients=CLIENTS, cohort_size=COHORT,
                             seeds=(SEED,), base_params=FLEET_PARAMS)
    started = time.perf_counter()

    def on_progress(done, total):
        if trajectory is not None:
            trajectory.append({
                "cohorts_done": done,
                "cohorts_total": total,
                "elapsed_seconds": round(time.perf_counter() - started, 3),
            })

    scheduler = SweepScheduler(workers=workers, on_progress=on_progress)
    (result,), stats = scheduler.run_specs(specs)
    elapsed = time.perf_counter() - started
    return result, stats, elapsed


def test_population_scale(benchmark):
    pytest.importorskip("numpy")
    assert numpy_or_none() is not None

    trajectory = []
    result, stats, elapsed = benchmark.pedantic(
        lambda: run_fleet(1, trajectory), rounds=1, iterations=1)
    rate = CLIENTS / elapsed
    fleet = combine_cohort_metrics([r.metrics for r in result.records])

    pooled_result, pooled_stats, pooled_elapsed = run_fleet(4)

    packet_started = time.perf_counter()
    for seed in range(1, PACKET_RUNS + 1):
        run_scenario("chronos_pool_attack", seed, {
            "poison_at_query": 3, "dedupe": False, "run_time_shift": True})
    packet_elapsed = time.perf_counter() - packet_started
    packet_rate = PACKET_RUNS / packet_elapsed if packet_elapsed else 0.0

    report = {
        "clients": CLIENTS,
        "cohorts": len(result.records),
        "vectorized_elapsed_seconds": round(elapsed, 3),
        "vectorized_clients_per_second": round(rate, 1),
        "trajectory": trajectory,
        "workers1_digest": result.digest(),
        "workers4_digest": pooled_result.digest(),
        "workers4_elapsed_seconds": round(pooled_elapsed, 3),
        "packet_runs": PACKET_RUNS,
        "packet_clients_per_second": round(packet_rate, 2),
        "scaleout_factor": round(rate / packet_rate, 1) if packet_rate else None,
        "fleet": {
            "clients_poisoned": fleet["clients_poisoned"],
            "poisoned_resolvers": fleet["poisoned_resolvers"],
            "mean_attacker_fraction": round(fleet["mean_attacker_fraction"], 6),
            "clients_attacker_two_thirds": fleet["clients_attacker_two_thirds"],
            "clients_shift_achieved": fleet["clients_shift_achieved"],
            "panic_rounds_total": fleet["panic_rounds_total"],
        },
    }
    json_path = "BENCH_population_scale.json"
    with Path(json_path).open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    emit("E-population — vectorized fleet vs packet baseline", [
        f"fleet: {CLIENTS:,} clients in {len(result.records)} cohorts "
        f"({stats.formatted()})",
        f"vectorized: {elapsed:.2f}s -> {rate:,.0f} clients/sec",
        f"workers=4:  {pooled_elapsed:.2f}s "
        f"({'inline' if pooled_stats.executed_inline else 'pooled'}), "
        f"digest {'==' if report['workers1_digest'] == report['workers4_digest'] else '!='} workers=1",
        f"packet baseline: {PACKET_RUNS} runs in {packet_elapsed:.2f}s "
        f"-> {packet_rate:.1f} clients/sec "
        f"(scale-out x{report['scaleout_factor']:,})",
        f"poisoned: {fleet['clients_poisoned']:,} clients via "
        f"{fleet['poisoned_resolvers']} resolvers; "
        f"attacker fraction {fleet['mean_attacker_fraction']:.3f}; "
        f"shift achieved for {fleet['clients_shift_achieved']:,}",
        f"report: {json_path}",
    ])

    # Determinism: the pooled stream reassembles byte-identically.
    assert report["workers1_digest"] == report["workers4_digest"]
    # Self-consistency: every client lands in exactly one histogram bucket.
    histogram_total = sum(fleet["poison_histogram"])
    assert histogram_total == CLIENTS
    assert fleet["clients"] == CLIENTS
    # The headline gate: population scale-out is real.
    assert rate >= MIN_RATE, (
        f"vectorized rate {rate:,.0f} clients/sec below gate {MIN_RATE:,.0f}")
