"""E-sweep: the parallel experiment engine on a 16-seed pool-attack sweep.

Runs the same sweep with ``workers=1`` and ``workers=4`` and checks the two
aggregates are byte-identical (SHA-256 over the canonical record encoding).
The wall-clock comparison is also emitted; the speedup assertion (default
≥2x, override with ``SWEEP_MIN_SPEEDUP``) only applies on hosts whose CPU
*affinity mask* spans at least 4 cores — on smaller hosts parallelism cannot
beat the fork overhead and only the determinism contract is enforced.
Shared CI runners with cgroup CPU quotas should relax the threshold via the
environment variable rather than inherit wall-clock flakiness.
"""

from __future__ import annotations

import os

from conftest import emit, usable_cpus

from repro.experiments import ExperimentSpec, SweepScheduler

SEEDS = tuple(range(1, 17))
PARAMS = {"poison_at_query": 3, "run_time_shift": False}


def _sweep(workers: int):
    (result,), _ = SweepScheduler(workers=workers).run_specs([ExperimentSpec(
        "chronos_pool_attack", seeds=SEEDS, base_params=PARAMS)])
    return result


def run_pair():
    return _sweep(1), _sweep(4)


def test_parallel_sweep_is_deterministic_and_faster(benchmark):
    sequential, parallel = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    speedup = sequential.elapsed_seconds / max(parallel.elapsed_seconds, 1e-9)
    cpus = usable_cpus()
    min_speedup = float(os.environ.get("SWEEP_MIN_SPEEDUP", "2.0"))
    emit("E-sweep — 16-seed pool-attack sweep, workers=1 vs workers=4", [
        *sequential.summary_lines(),
        f"workers=1 wall-clock: {sequential.elapsed_seconds:.2f}s",
        f"workers=4 wall-clock: {parallel.elapsed_seconds:.2f}s "
        f"(speedup {speedup:.2f}x on {cpus} usable CPUs)",
        f"digests equal: {sequential.digest() == parallel.digest()}",
    ])
    assert sequential.digest() == parallel.digest()
    assert [record.metrics for record in sequential.records] == \
        [record.metrics for record in parallel.records]
    assert sequential.success_rate() == parallel.success_rate() == 1.0
    if cpus >= 4:
        assert speedup >= min_speedup, (
            f"expected >={min_speedup}x speedup with 4 workers on {cpus} usable "
            f"CPUs, got {speedup:.2f}x")
