"""Tests for the shared sweep-execution layer (scheduler + matrix wiring).

The load-bearing contract is inherited from the runner and strengthened:
flattening many specs into one task stream, executing them on one shared
pool with guided chunking, and replaying cells from the persistent cache
must all be *invisible* in the output — byte-identical digests across worker
counts, across the shared and legacy per-row paths, and across cold and warm
cache runs.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro.experiments.scheduler as scheduler_module
from repro.experiments import (
    AttackSpec,
    DefenseStackSpec,
    ExperimentSpec,
    RunCache,
    SweepError,
    SweepScheduler,
    guided_chunk_sizes,
    matrix_specs,
    run_defense_matrix,
)

# The pooled-path tests must not depend on the host's CPU count.
pytestmark = pytest.mark.usefixtures("pool_cpus")

CHEAP_BGP = {"benign_server_count": 10}
CHEAP_FRAG = {"benign_server_count": 40}

#: The same cheap determinism grid the matrix tests use: both poisoning
#: vectors under three stacks with tiny populations.
TRIMMED_ATTACKS = (
    AttackSpec("bgp_hijack", "bgp_hijack", CHEAP_BGP),
    AttackSpec("frag_poisoning", "frag_poisoning", CHEAP_FRAG),
)
TRIMMED_STACKS = (
    DefenseStackSpec("classic", ()),
    DefenseStackSpec("dnssec", ("response_signing",)),
    DefenseStackSpec("multi_vantage", ("multi_vantage",)),
)


# -- guided chunking ----------------------------------------------------------

def test_guided_chunk_sizes_cover_the_stream_and_decrease():
    sizes = guided_chunk_sizes(100, 4)
    assert sum(sizes) == 100
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == 12  # 100 // (2 * 4)
    assert sizes[-1] == 1  # the tail is dispatched task-by-task


def test_guided_chunk_sizes_edge_cases():
    assert guided_chunk_sizes(0, 4) == []
    assert guided_chunk_sizes(1, 4) == [1]
    assert guided_chunk_sizes(3, 8) == [1, 1, 1]
    assert sum(guided_chunk_sizes(7, 2)) == 7
    with pytest.raises(ValueError):
        guided_chunk_sizes(-1, 2)
    with pytest.raises(ValueError):
        guided_chunk_sizes(10, 0)


# -- flattened multi-spec execution -------------------------------------------

def _two_specs():
    return [
        ExperimentSpec(scenario="bgp_hijack", seeds=(1, 2), base_params=CHEAP_BGP),
        ExperimentSpec(scenario="frag_poisoning", seeds=(1, 2),
                       base_params=CHEAP_FRAG),
    ]


def test_run_specs_matches_individual_runners_bit_for_bit():
    shared, stats = SweepScheduler(workers=1).run_specs(_two_specs())
    individual = [SweepScheduler(workers=1).run_specs([spec])[0][0]
                  for spec in _two_specs()]
    assert stats.tasks_total == 4
    assert [result.scenario for result in shared] == ["bgp_hijack", "frag_poisoning"]
    for shared_result, single_result in zip(shared, individual):
        assert shared_result.records == single_result.records
        assert shared_result.digest() == single_result.digest()


def test_run_specs_is_deterministic_across_worker_counts():
    specs = _two_specs()
    sequential, _ = SweepScheduler(workers=1).run_specs(specs)
    # Tiny stream + many workers exercises the inline fallback...
    inline, inline_stats = SweepScheduler(workers=8).run_specs(specs)
    assert inline_stats.executed_inline
    # ...while workers=2 over 4 tasks exercises the pooled path.
    pooled, pooled_stats = SweepScheduler(workers=2).run_specs(specs)
    assert not pooled_stats.executed_inline
    for a, b, c in zip(sequential, inline, pooled):
        assert a.digest() == b.digest() == c.digest()


def test_inline_fallback_when_workers_would_idle():
    spec = ExperimentSpec(scenario="bgp_hijack", seeds=(1, 2, 3),
                          base_params=CHEAP_BGP)
    # 3 tasks on 3 (or more) workers: the pool would cost more than the
    # tasks and leave nothing to load-balance, so execution stays inline.
    _, stats = SweepScheduler(workers=3).run_specs([spec])
    assert stats.executed_inline
    _, stats = SweepScheduler(workers=2).run_specs([spec])
    assert not stats.executed_inline
    assert stats.chunks >= 2


def test_pool_never_exceeds_the_usable_cpus(monkeypatch):
    started: list[int] = []

    class RecordingMP:
        TimeoutError = multiprocessing.TimeoutError

        @staticmethod
        def Pool(processes):
            started.append(processes)
            return multiprocessing.Pool(processes=processes)

    monkeypatch.setattr(scheduler_module, "multiprocessing", RecordingMP)
    spec = ExperimentSpec(scenario="bgp_hijack", seeds=tuple(range(1, 7)),
                          base_params=CHEAP_BGP)
    # 8 workers asked for on 2 usable CPUs: a 2-process pool, and 6 tasks
    # are more than 2 workers, so the stream pools.
    monkeypatch.setattr(scheduler_module, "usable_cpus", lambda: 2)
    (pooled,), stats = SweepScheduler(workers=8).run_specs([spec])
    assert started == [2]
    assert stats.workers == 2 and not stats.executed_inline
    # One usable CPU: no pool at all.
    monkeypatch.setattr(scheduler_module, "usable_cpus", lambda: 1)
    (inline,), stats = SweepScheduler(workers=8).run_specs([spec])
    assert started == [2]
    assert stats.workers == 1 and stats.executed_inline
    assert inline.digest() == pooled.digest()


def test_scheduler_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        SweepScheduler(workers=0)


# -- progress reporting ---------------------------------------------------------

def test_on_progress_reports_every_inline_task():
    calls = []
    spec = ExperimentSpec(scenario="bgp_hijack", seeds=(1, 2, 3),
                          base_params=CHEAP_BGP)
    _, stats = SweepScheduler(workers=1,
                              on_progress=lambda done, total:
                              calls.append((done, total))).run_specs([spec])
    assert stats.executed_inline
    assert calls == [(1, 3), (2, 3), (3, 3)]


def test_on_progress_reports_pooled_chunks_and_cache_replay(tmp_path):
    spec = ExperimentSpec(scenario="bgp_hijack", seeds=(1, 2, 3, 4, 5, 6),
                          base_params=CHEAP_BGP)
    SweepScheduler(workers=1, cache=RunCache(tmp_path / "rc")).run_specs([spec])

    calls = []
    warm = SweepScheduler(workers=2, cache=RunCache(tmp_path / "rc"),
                          on_progress=lambda done, total:
                          calls.append((done, total)))
    _, stats = warm.run_specs([spec])
    # Everything replays from the cache: one batch report, no execution.
    assert stats.cache_hits == 6 and stats.executed == 0
    assert calls == [(6, 6)]

    cold_calls = []
    _, cold_stats = SweepScheduler(workers=2,
                                   on_progress=lambda done, total:
                                   cold_calls.append((done, total))
                                   ).run_specs([spec])
    # Pooled path: one report per completed chunk, monotonically increasing
    # regardless of completion order, ending at the full stream.
    assert not cold_stats.executed_inline
    assert len(cold_calls) == cold_stats.chunks
    assert all(total == 6 for _, total in cold_calls)
    assert [done for done, _ in cold_calls] == sorted(
        done for done, _ in cold_calls)
    assert cold_calls[-1] == (6, 6)


# -- cache integration ---------------------------------------------------------

def test_partial_cache_mixes_hits_and_computed_records(tmp_path):
    spec_two = ExperimentSpec(scenario="bgp_hijack", seeds=(1, 2),
                              base_params=CHEAP_BGP)
    spec_four = ExperimentSpec(scenario="bgp_hijack", seeds=(1, 2, 3, 4),
                               base_params=CHEAP_BGP)
    SweepScheduler(workers=1, cache=RunCache(tmp_path / "rc")).run_specs([spec_two])
    warm_cache = RunCache(tmp_path / "rc")
    results, stats = SweepScheduler(workers=1, cache=warm_cache).run_specs([spec_four])
    assert stats.cache_hits == 2 and stats.executed == 2
    uncached, _ = SweepScheduler(workers=1).run_specs([spec_four])
    assert results[0].digest() == uncached[0].digest()
    # The two freshly-computed seeds were written back.
    assert warm_cache.stats.writes == 2


def test_pooled_execution_populates_the_cache(tmp_path):
    spec = ExperimentSpec(scenario="bgp_hijack", seeds=tuple(range(1, 7)),
                          base_params=CHEAP_BGP)
    cache = RunCache(tmp_path / "rc")
    pooled, stats = SweepScheduler(workers=2, cache=cache).run_specs([spec])
    assert not stats.executed_inline
    warm_cache = RunCache(tmp_path / "rc")
    warm, warm_stats = SweepScheduler(workers=2, cache=warm_cache).run_specs([spec])
    assert warm_stats.cache_hits == 6 and warm_stats.executed == 0
    assert pooled[0].digest() == warm[0].digest()


def test_interrupted_sweep_persists_completed_records(tmp_path):
    """Records are written back as they complete, not after the full stream,
    so a sweep with a permanently-failing cell still persists everything it
    finished — and reports the failure as a :class:`SweepError` after the
    stream (crash isolation keeps the bad task from aborting its peers)."""
    spec = ExperimentSpec(
        scenario="chronos_pool_attack", seeds=(1,),
        base_params={"benign_server_count": 30, "run_time_shift": False},
        # The second overlay passes resolve-time validation (known key) but
        # blows up inside the scenario — deterministically, so retries
        # cannot save it.
        param_sets=({"poison_at_query": 1}, {"poison_at_query": 99}),
    )
    cache = RunCache(tmp_path / "rc")
    with pytest.raises(SweepError, match="poison_at_query") as excinfo:
        SweepScheduler(workers=1, cache=cache).run_specs([spec])
    assert len(excinfo.value.failures) == 1
    assert excinfo.value.failures[0].task[0] == "chronos_pool_attack"
    assert excinfo.value.stats.tasks_failed == 1
    assert excinfo.value.stats.tasks_retried == 1  # TASK_RETRIES = 1
    survivor = RunCache(tmp_path / "rc")
    assert len(survivor) == 1  # the completed first task reached disk


# -- matrix wiring -------------------------------------------------------------

def test_matrix_warm_cache_run_is_byte_identical_and_computes_nothing(tmp_path):
    cold = run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS, seeds=(1, 2),
                              cache=RunCache(tmp_path / "rc"))
    warm = run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS, seeds=(1, 2),
                              cache=RunCache(tmp_path / "rc"))
    assert cold.sweep_stats.tasks_total == len(TRIMMED_ATTACKS) * len(TRIMMED_STACKS) * 2
    assert cold.digest() == warm.digest()
    assert cold.success_table() == warm.success_table()
    assert warm.sweep_stats.executed == 0
    assert warm.sweep_stats.cache_hits == cold.sweep_stats.tasks_total


def test_matrix_incremental_seed_extension_only_computes_new_cells(tmp_path):
    run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS, seeds=(1, 2),
                       cache=RunCache(tmp_path / "rc"))
    extended = run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS, seeds=(1, 2, 3),
                                  cache=RunCache(tmp_path / "rc"))
    cells = len(TRIMMED_ATTACKS) * len(TRIMMED_STACKS)
    assert extended.sweep_stats.cache_hits == cells * 2
    assert extended.sweep_stats.executed == cells  # only the new seed
    fresh = run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS, seeds=(1, 2, 3))
    assert extended.digest() == fresh.digest()


def test_matrix_specs_expand_one_spec_per_row():
    specs = matrix_specs(TRIMMED_ATTACKS, TRIMMED_STACKS, seeds=(5,))
    assert [spec.scenario for spec in specs] == [a.scenario for a in TRIMMED_ATTACKS]
    for spec in specs:
        assert len(spec.tasks()) == len(TRIMMED_STACKS)
        assert [overlay["defenses"] for overlay in spec.param_sets] == \
            [stack.defenses for stack in TRIMMED_STACKS]
