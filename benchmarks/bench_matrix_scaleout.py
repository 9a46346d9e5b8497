"""E-scaleout: the matrix sweep-execution layer as a perf + determinism gate.

Three runs of the default 6-attack × 12-stack grid:

1. **pooled** — all rows flattened into one task stream on a single shared
   pool at ``workers=4``;
2. **cold** — inline, writing a fresh persistent run cache;
3. **warm** — the same sweep replayed entirely from that cache.

Gates:

* the three digests are byte-identical and, at seeds ``(1, 2)``, equal to
  the pinned full-grid digest (:mod:`repro.experiments.pins`) — the pool,
  the cache replay path and the hot-path work are invisible in the output;
* warm ≥ 10× faster than cold (``SCALEOUT_MIN_CACHE_SPEEDUP``) — the cache
  actually makes re-runs incremental.

The measured numbers are also written to ``BENCH_matrix_scaleout.json``
(path override: ``SCALEOUT_JSON``) so CI can archive the run.  Reduced CI
form: fewer seeds via ``SCALEOUT_SEED_COUNT`` (digest pinning then only
applies when the grid is the pinned one).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit, usable_cpus

from repro.experiments import RunCache, run_defense_matrix
from repro.experiments.pins import FULL_GRID_DIGEST

SEEDS = tuple(range(1, int(os.environ.get("SCALEOUT_SEED_COUNT", "2")) + 1))
WORKERS = 4


def _timed(**kwargs):
    start = time.perf_counter()
    matrix = run_defense_matrix(seeds=SEEDS, **kwargs)
    return matrix, time.perf_counter() - start


def run_trio(cache_dir):
    return {
        "pooled": _timed(workers=WORKERS),
        "cold": _timed(workers=1, cache=RunCache(cache_dir)),
        "warm": _timed(workers=1, cache=RunCache(cache_dir)),
    }


def test_matrix_scaleout_gates(benchmark, tmp_path):
    runs = benchmark.pedantic(run_trio, args=(tmp_path / "run-cache",),
                              rounds=1, iterations=1)
    timings = {name: seconds for name, (_, seconds) in runs.items()}
    digests = {name: matrix.digest() for name, (matrix, _) in runs.items()}
    cache_speedup = timings["cold"] / max(timings["warm"], 1e-9)
    warm_stats = runs["warm"][0].sweep_stats
    cpus = usable_cpus()
    min_cache = float(os.environ.get("SCALEOUT_MIN_CACHE_SPEEDUP", "10.0"))
    pinnable = SEEDS == (1, 2)

    report = {
        "seeds": list(SEEDS),
        "workers": WORKERS,
        "usable_cpus": cpus,
        "timings_seconds": {name: round(seconds, 4) for name, seconds in timings.items()},
        "cache_speedup": round(cache_speedup, 3),
        "warm_cache": {"hits": warm_stats.cache_hits, "executed": warm_stats.executed},
        "digest": digests["pooled"],
        "full_grid_digest": FULL_GRID_DIGEST if pinnable else None,
        "digests_identical": len(set(digests.values())) == 1,
    }
    json_path = os.environ.get("SCALEOUT_JSON", "BENCH_matrix_scaleout.json")
    with Path(json_path).open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    emit("E-scaleout — shared scheduler + persistent run cache on the "
         f"6-attack × 12-stack grid, seeds={list(SEEDS)}", [
             f"shared pool (workers={WORKERS}): {timings['pooled']:.2f}s "
             f"on {cpus} usable CPUs",
             f"cold cache  (workers=1): {timings['cold']:.2f}s",
             f"warm cache  (workers=1): {timings['warm']:.3f}s "
             f"(speedup {cache_speedup:.1f}x, "
             f"{warm_stats.cache_hits} hits / {warm_stats.executed} executed)",
             f"digests identical: {report['digests_identical']}",
             f"full-grid digest match: "
             f"{digests['pooled'] == FULL_GRID_DIGEST if pinnable else 'n/a'}",
             f"report: {json_path}",
         ])

    # Gate (a): the execution layer is invisible in the output.
    assert len(set(digests.values())) == 1, f"digests diverged: {digests}"
    if pinnable:
        assert digests["pooled"] == FULL_GRID_DIGEST, (
            "full-grid digest drifted from its pin: "
            f"{digests['pooled']} != {FULL_GRID_DIGEST}")
    # Gate (b): warm replay computed nothing and is an order of magnitude
    # faster than the cold run.
    assert warm_stats.executed == 0
    assert warm_stats.cache_hits == warm_stats.tasks_total
    assert cache_speedup >= min_cache, (
        f"expected warm-cache re-run >= {min_cache}x faster than cold, "
        f"got {cache_speedup:.2f}x")
