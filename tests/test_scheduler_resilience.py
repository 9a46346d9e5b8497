"""Crash-proof sweeps: task isolation, retries, watchdog, cache degradation.

The centrepiece is the worker-kill chaos gate: a pool worker is SIGKILLed
mid-sweep and the sweep must still complete — via the watchdog timeout and
inline degradation — reproducing the records a healthy run produces, because
every task is a pure function of ``(scenario, seed, params)``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import pytest

import repro.experiments.scheduler as scheduler_module
from repro import obs
from repro.experiments.cache import RunCache
from repro.experiments.registry import merge_params, register_scenario
from repro.experiments.runner import ExperimentSpec
from repro.experiments.scheduler import (
    SweepError,
    SweepScheduler,
    TaskFailure,
    _execute_chunk,
)

# The pooled-path tests must not depend on the host's CPU count.
pytestmark = pytest.mark.usefixtures("pool_cpus")

# -- test-only scenarios ------------------------------------------------------
# Registered at module import; the pool's forked workers inherit them.


class _Probe:
    def optional_params(self) -> tuple[str, ...]:
        return ()


@register_scenario
class SleepProbeScenario(_Probe):
    """Test-only: sleeps, then returns a seed-pure metric (chaos timing pad)."""

    name = "sleep_probe"
    description = "test-only scenario that sleeps then returns seed-derived metrics"

    def default_params(self) -> dict[str, Any]:
        return {"sleep": 0.0}

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = merge_params(self.default_params(), params)
        time.sleep(p["sleep"])
        return {"value": seed * 7 % 13}


@register_scenario
class FlakyProbeScenario(_Probe):
    """Test-only: fails until its per-seed marker file exists, then succeeds.

    The marker lives on disk so the flakiness is consistent across the pool's
    worker processes and the parent's retry pass: the *first* attempt
    anywhere fails, every later attempt succeeds.
    """

    name = "flaky_probe"
    description = "test-only scenario that fails its first attempt per seed"

    def default_params(self) -> dict[str, Any]:
        return {"marker_dir": ""}

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = merge_params(self.default_params(), params)
        marker = Path(p["marker_dir"]) / f"attempted-{seed}"
        if not marker.exists():
            marker.write_text("first attempt\n")
            raise RuntimeError(f"transient failure for seed {seed}")
        return {"ok": seed}


@register_scenario
class MeteredProbeScenario(_Probe):
    """Test-only: records seed-derived metrics into the ambient capture."""

    name = "metered_probe"
    description = "test-only scenario that records seed-derived metrics"

    def default_params(self) -> dict[str, Any]:
        return {"weight": 1}

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = merge_params(self.default_params(), params)
        observed = obs.current()
        if observed.enabled:
            observed.metrics.counter("probe.runs", parity=seed % 2).inc(p["weight"])
            observed.metrics.histogram("probe.seed").observe(float(seed))
        return {"value": seed * p["weight"] % 11}


def records_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        for record in result.records:
            digest.update(json.dumps(record.canonical(), sort_keys=True).encode())
    return digest.hexdigest()


# -- task isolation and retries -----------------------------------------------

def test_transient_failure_is_retried_inline_and_recovers(tmp_path):
    spec = ExperimentSpec(scenario="flaky_probe", seeds=(1, 2, 3),
                          base_params={"marker_dir": str(tmp_path)})
    scheduler = SweepScheduler(workers=1)
    results, stats = scheduler.run_specs([spec])
    assert [r.metrics["ok"] for r in results[0].records] == [1, 2, 3]
    assert stats.tasks_retried == 3
    assert stats.tasks_failed == 0


def test_transient_failures_in_pool_workers_recover_via_parent_retry(tmp_path):
    spec = ExperimentSpec(scenario="flaky_probe", seeds=tuple(range(1, 9)),
                          base_params={"marker_dir": str(tmp_path)})
    scheduler = SweepScheduler(workers=2, task_timeout=30.0)
    results, stats = scheduler.run_specs([spec])
    assert [r.metrics["ok"] for r in results[0].records] == list(range(1, 9))
    assert not stats.executed_inline
    assert stats.tasks_retried >= 1
    assert stats.tasks_failed == 0


def test_permanent_failure_raises_sweep_error_with_failures_attached(tmp_path):
    # A marker dir that cannot be created: every attempt raises.
    spec = ExperimentSpec(scenario="flaky_probe", seeds=(1,),
                          base_params={"marker_dir": str(tmp_path / "missing" / "x")})
    with pytest.raises(SweepError) as excinfo:
        SweepScheduler(workers=1).run_specs([spec])
    error = excinfo.value
    assert len(error.failures) == 1
    assert isinstance(error.failures[0], TaskFailure)
    assert error.failures[0].attempts == 2      # initial + TASK_RETRIES
    assert error.stats.tasks_retried == 1
    assert error.stats.tasks_failed == 1


def test_failing_task_does_not_poison_its_chunk_mates(tmp_path):
    # One chunk containing a permanently-failing task still returns its
    # healthy siblings' records.
    bad_dir = str(tmp_path / "missing" / "x")
    start, records, seconds, snapshot = _execute_chunk((0, [
        ("sleep_probe", 1, {"sleep": 0.0}),
        ("flaky_probe", 1, {"marker_dir": bad_dir}),
        ("sleep_probe", 2, {"sleep": 0.0}),
    ], False))
    assert start == 0
    assert records[0].metrics == {"value": 7}
    assert isinstance(records[1], TaskFailure)
    assert "FileNotFoundError" in records[1].error
    assert records[2].metrics == {"value": 1}


# -- progress-callback guarding -----------------------------------------------

def test_raising_progress_callback_never_aborts_the_sweep():
    calls = []

    def bad_callback(done, total):
        calls.append((done, total))
        raise RuntimeError("observer blew up")

    spec = ExperimentSpec(scenario="sleep_probe", seeds=(1, 2, 3))
    results, stats = SweepScheduler(workers=1,
                                    on_progress=bad_callback).run_specs([spec])
    assert len(results[0].records) == 3
    assert stats.callback_errors == len(calls) == 3


def test_raising_progress_callback_is_counted_on_the_pooled_path():
    def bad_callback(done, total):
        raise RuntimeError("observer blew up")

    spec = ExperimentSpec(scenario="sleep_probe", seeds=tuple(range(8)))
    results, stats = SweepScheduler(workers=2, task_timeout=30.0,
                                    on_progress=bad_callback).run_specs([spec])
    assert len(results[0].records) == 8
    assert stats.callback_errors == stats.chunks


# -- pool-loss degradation ----------------------------------------------------

class BrokenMP:
    """Stands in for ``multiprocessing`` in the scheduler: no pool starts."""

    TimeoutError = multiprocessing.TimeoutError

    @staticmethod
    def Pool(processes):
        raise OSError("fork failed")


def test_pool_start_failure_degrades_to_inline(monkeypatch):
    monkeypatch.setattr(scheduler_module, "multiprocessing", BrokenMP)
    spec = ExperimentSpec(scenario="sleep_probe", seeds=tuple(range(8)))
    results, stats = SweepScheduler(workers=2).run_specs([spec])
    assert [r.metrics["value"] for r in results[0].records] == [
        s * 7 % 13 for s in range(8)]
    assert stats.degraded_to_inline
    assert stats.pool_losses == 0       # the pool never existed to lose


def test_sigkilled_pool_worker_degrades_and_reproduces_the_digest():
    """The chaos gate: SIGKILL a pool worker mid-sweep.

    ``multiprocessing.Pool`` respawns the process but silently never
    redelivers its in-flight chunk, so without the watchdog the sweep hangs
    forever.  With it, the pool is declared lost, the missing chunks re-run
    inline, and — tasks being pure — the records match a healthy inline
    run byte for byte.
    """
    spec = ExperimentSpec(scenario="sleep_probe", seeds=tuple(range(10)),
                          base_params={"sleep": 0.25})
    baseline, _ = SweepScheduler(workers=1).run_specs([spec])

    first_chunk_done = threading.Event()
    killed = threading.Event()

    def kill_one_worker():
        # Wait until the stream is demonstrably mid-flight, then SIGKILL a
        # live pool worker (workers hold in-flight chunks at that point).
        if not first_chunk_done.wait(timeout=30.0):
            return
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            children = multiprocessing.active_children()
            if children:
                os.kill(children[0].pid, signal.SIGKILL)
                killed.set()
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_one_worker, daemon=True)
    killer.start()
    scheduler = SweepScheduler(workers=2, task_timeout=3.0,
                               on_progress=lambda done, total: first_chunk_done.set())
    chaotic, stats = scheduler.run_specs([spec])
    killer.join(timeout=30.0)

    assert killed.is_set(), "chaos harness never found a worker to kill"
    assert records_digest(chaotic) == records_digest(baseline)
    assert stats.pool_losses >= 1
    assert stats.degraded_to_inline
    assert stats.tasks_failed == 0
    # The formatted stats surface the degradation for humans.
    assert "pool loss" in stats.formatted()


# -- run-cache degradation ----------------------------------------------------

def test_cache_with_uncreatable_directory_degrades_to_uncached(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the cache dir should go\n")
    with pytest.warns(RuntimeWarning, match="continuing without persistence"):
        cache = RunCache(blocker / "cache")
    assert cache.stats.write_errors == 1
    # The sweep still runs, uncached but correct.
    spec = ExperimentSpec(scenario="sleep_probe", seeds=(1, 2))
    results, stats = SweepScheduler(workers=1, cache=cache).run_specs([spec])
    assert [r.metrics["value"] for r in results[0].records] == [7, 14 % 13]
    assert stats.cache_hits == 0


def test_write_error_mid_sweep_warns_once_and_continues(tmp_path, monkeypatch):
    cache = RunCache(tmp_path / "rc")
    # Redirect shard files into a directory that does not exist: every
    # append fails with ENOENT (any OSError takes the same path — ENOSPC
    # and EACCES included; tests run as root, so an actual chmod would not
    # refuse anything).
    monkeypatch.setattr(cache, "_shard_path",
                        lambda shard: tmp_path / "gone" / f"runs-{shard}.jsonl")
    spec = ExperimentSpec(scenario="sleep_probe", seeds=(1, 2, 3))
    with pytest.warns(RuntimeWarning, match="continuing without persistence") as warned:
        results, _ = SweepScheduler(workers=1, cache=cache).run_specs([spec])
    assert len(results[0].records) == 3
    assert len(warned) == 1                   # warned once, not per record
    assert cache.stats.write_errors == 1
    assert cache.stats.writes == 0
    assert "persistence disabled" in cache.stats.formatted()


def test_degraded_cache_still_hits_in_memory_within_the_process(tmp_path, monkeypatch):
    cache = RunCache(tmp_path / "rc")
    monkeypatch.setattr(cache, "_shard_path",
                        lambda shard: tmp_path / "gone" / f"runs-{shard}.jsonl")
    spec = ExperimentSpec(scenario="sleep_probe", seeds=(1, 2))
    with pytest.warns(RuntimeWarning):
        SweepScheduler(workers=1, cache=cache).run_specs([spec])
    # Same sweep again through the same cache object: pure in-memory replay.
    results, stats = SweepScheduler(workers=1, cache=cache).run_specs([spec])
    assert stats.cache_hits == 2
    assert stats.executed == 0
    assert [r.metrics["value"] for r in results[0].records] == [7, 1]


def test_healthy_cache_is_unaffected_by_the_degradation_seam(tmp_path):
    cache = RunCache(tmp_path / "rc")
    spec = ExperimentSpec(scenario="sleep_probe", seeds=(1, 2))
    SweepScheduler(workers=1, cache=cache).run_specs([spec])
    assert cache.stats.write_errors == 0
    assert cache.stats.writes == 2
    survivor = RunCache(tmp_path / "rc")
    assert len(survivor) == 2


# -- one execution path: inline, pooled and degraded are interchangeable -------

def _stream_specs(marker_dir: Path, metered_seeds=tuple(range(1, 9)),
                  flaky_seeds=(1, 2)) -> list[ExperimentSpec]:
    return [ExperimentSpec(scenario="metered_probe", seeds=metered_seeds),
            ExperimentSpec(scenario="flaky_probe", seeds=flaky_seeds,
                           base_params={"marker_dir": str(marker_dir)})]


def _reset_markers(marker_dir: Path) -> None:
    marker_dir.mkdir(exist_ok=True)
    for marker in marker_dir.glob("attempted-*"):
        marker.unlink()


def _cache_lines(path: Path) -> set[bytes]:
    return {line for shard in path.glob("runs-*.jsonl")
            for line in shard.read_bytes().splitlines() if line.strip()}


def _observed_sweep(root: Path, marker_dir: Path, workers: int,
                    collect_metrics: bool, cache_state: str, label: str):
    """One sweep of the probe stream, plus everything it observably did."""
    cache = None
    if cache_state != "none":
        cache = RunCache(root / f"cache-{label}")
        # Half-warm replays cells written with metrics, warm replays cells
        # written without them (so a metrics sweep counts them missing).
        prefill = {"cold": None,
                   "half_warm": (_stream_specs(marker_dir, (1, 3, 5, 7), (1,)), True),
                   "warm": (_stream_specs(marker_dir), False)}[cache_state]
        if prefill is not None:
            _reset_markers(marker_dir)
            SweepScheduler(workers=1, cache=cache,
                           collect_metrics=prefill[1]).run_specs(prefill[0])
    before = _cache_lines(cache.path) if cache is not None else set()
    _reset_markers(marker_dir)
    progress: list[tuple[int, int]] = []
    scheduler = SweepScheduler(
        workers=workers, cache=cache, collect_metrics=collect_metrics,
        task_timeout=60.0, on_progress=lambda done, total: progress.append((done, total)))
    results, stats = scheduler.run_specs(_stream_specs(marker_dir))
    written = _cache_lines(cache.path) - before if cache is not None else set()
    observed = {
        "records": [record.canonical() for result in results for record in result.records],
        "metrics": stats.metrics.to_dict() if stats.metrics is not None else None,
        "metrics_missing": stats.metrics_missing,
        "cache_hits": stats.cache_hits,
        "executed": stats.executed,
        "tasks_retried": stats.tasks_retried,
        "written": written,
    }
    return observed, stats, progress


@pytest.mark.parametrize("cache_state", ["none", "cold", "half_warm", "warm"])
@pytest.mark.parametrize("collect_metrics", [False, True])
def test_worker_count_metrics_and_cache_state_never_change_the_sweep(
        tmp_path, monkeypatch, collect_metrics, cache_state):
    """Refactor gate: inline, pooled and degraded execution are
    indistinguishable.

    Every observable outcome of a sweep — records, merged metrics, missing
    metrics, cache hits, executed count, retries and the set of cache lines
    written — must match across worker counts and when no pool can start,
    with a transiently failing task in the stream.  Pooled chunks finish in
    any order, so cache lines compare as a set.
    """
    marker_dir = tmp_path / "markers"
    reference, reference_stats, progress = _observed_sweep(
        tmp_path, marker_dir, 1, collect_metrics, cache_state, "inline")
    total = len(reference["records"])
    hits = reference["cache_hits"]
    assert reference_stats.tasks_failed == 0
    assert (reference_stats.metrics is not None) == collect_metrics
    if cache_state == "none":
        assert reference["written"] == set()
    if cache_state == "warm":
        assert reference["executed"] == 0
        assert reference["metrics_missing"] == (total if collect_metrics else 0)
    if cache_state == "half_warm" and collect_metrics:
        # flaky_probe records no metrics, and an empty snapshot is not stored.
        assert reference["metrics_missing"] == 1
    if reference["executed"]:
        assert reference_stats.executed_inline
        assert reference_stats.chunks == reference["executed"]
        assert progress == ([(hits, total)] if hits else []) + [
            (done, total) for done in range(hits + 1, total + 1)]
    if not collect_metrics:
        assert all(b'"obs"' not in line for line in reference["written"])
    for workers in (2, 4):
        observed, stats, _ = _observed_sweep(
            tmp_path, marker_dir, workers, collect_metrics, cache_state, f"w{workers}")
        assert observed == reference, f"workers={workers} diverged"
        if stats.executed > workers:
            assert not stats.executed_inline
    monkeypatch.setattr(scheduler_module, "multiprocessing", BrokenMP)
    degraded, stats, _ = _observed_sweep(
        tmp_path, marker_dir, 2, collect_metrics, cache_state, "degraded")
    assert degraded == reference
    assert stats.degraded_to_inline == (stats.executed > 2)
