"""E-campaign: campaign observatory determinism and resume-economy gates.

Runs the reduced two-sweep study (the one ``examples/campaign_study.py``
and the CI ``campaign`` job use) three ways in fresh directories:

1. **cold** — empty cache, every cell executes;
2. **interrupted** — a run whose journal and cache were primed by a
   partial pass over the first sweep (the in-process stand-in for the
   SIGKILL demo the tests run out-of-process), then resumed;
3. **warm** — a straight re-run of the cold directory.

Gates: all three produce identical step digests and byte-identical
``report.md``/SVG artifacts; the interrupted run executes only the cells
its primer did not persist; the warm run executes nothing and replays
every cell from cache.  A JSON artifact (``BENCH_campaign.json``)
records the numbers for CI archiving.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

from conftest import emit

from repro.campaign import CampaignManifest, CampaignRunner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))
from campaign_study import reduced_manifest  # noqa: E402

SEEDS = 2


def _run(directory: Path, manifest: CampaignManifest):
    return CampaignRunner(manifest, directory).run()


def _prime_partial(directory: Path, manifest: CampaignManifest) -> int:
    """Persist a few matrix cells, as a killed run would have.

    Runs a sub-spec of the first sweep's first row (its first seed under
    every stack) through a scheduler that shares the campaign directory's
    cache — the same on-disk situation a SIGKILL part-way through the
    sweep leaves behind (journal absent/mid-step, cache partially filled).
    Returns how many cells it persisted.
    """
    from repro.experiments.cache import RunCache
    from repro.experiments.matrix import matrix_specs
    from repro.experiments.scheduler import SweepScheduler

    sweep = manifest.sweep("grid")
    first_row = matrix_specs(sweep.attacks, sweep.stacks, sweep.seeds)[0]
    primer = replace(first_row, seeds=first_row.seeds[:1])
    cache = RunCache(directory / "cache")
    scheduler = SweepScheduler(workers=1, cache=cache, collect_metrics=True)
    _, stats = scheduler.run_specs([primer])
    return stats.executed


def _artifact_bytes(result) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(result.report_dir.iterdir())}


def test_campaign_gates(benchmark, tmp_path):
    manifest = CampaignManifest.from_spec(reduced_manifest(SEEDS))

    def workload():
        cold = _run(tmp_path / "cold", manifest)
        primed = _prime_partial(tmp_path / "interrupted", manifest)
        interrupted = _run(tmp_path / "interrupted", manifest)
        warm = _run(tmp_path / "cold", manifest)
        return cold, primed, interrupted, warm

    cold, primed, interrupted, warm = benchmark.pedantic(workload, rounds=1,
                                                         iterations=1)

    # Gate 1: digests independent of interruption and cache temperature.
    assert cold.step_digests() == interrupted.step_digests()
    assert cold.step_digests() == warm.step_digests()

    # Gate 2: report artifacts byte-identical across all three runs.
    assert _artifact_bytes(cold) == _artifact_bytes(interrupted)
    assert _artifact_bytes(cold) == _artifact_bytes(warm)

    # Gate 3: resume economy — the interrupted run recomputed only the
    # cells its primer did not persist; the warm run recomputed nothing.
    grid_cold = cold.outcome("sweep:grid").telemetry
    grid_resumed = interrupted.outcome("sweep:grid").telemetry
    assert grid_cold["executed"] == grid_cold["tasks"]
    assert grid_resumed["cache_hits"] == primed
    assert grid_resumed["executed"] == grid_resumed["tasks"] - primed
    for outcome in warm.outcomes:
        if outcome.kind == "sweep":
            assert outcome.telemetry["executed"] == 0

    report = {
        "seeds": SEEDS,
        "cells_total": manifest.cell_count,
        "primed_tasks": primed,
        "step_digests": {name: digest[:16]
                         for name, digest in cold.step_digests().items()},
        "cold_wall_seconds": round(
            sum(o.telemetry.get("wall_seconds", 0.0) for o in cold.outcomes), 3),
        "warm_wall_seconds": round(
            sum(o.telemetry.get("wall_seconds", 0.0) for o in warm.outcomes), 3),
        "resumed_executed": grid_resumed["executed"],
    }
    Path("BENCH_campaign.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    emit("E-campaign: resumable study gates", [
        f"cells total            : {report['cells_total']}",
        f"cold wall              : {report['cold_wall_seconds']}s",
        f"warm wall              : {report['warm_wall_seconds']}s",
        f"interrupted: primed {primed}, resumed executed "
        f"{grid_resumed['executed']} of {grid_resumed['tasks']}",
        "digests: cold == interrupted == warm "
        f"({report['step_digests']['report'][:12]} report)",
    ])
