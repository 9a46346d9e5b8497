"""Tests for the persistent, content-addressed run cache.

The contracts: a hit replays the exact canonical record (digest-identical to
recomputing it), a fingerprint change invalidates silently, corruption costs
a recomputation rather than a crash, and concurrent writers never lose each
other's whole lines.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.experiments import (
    ExperimentSpec,
    RunCache,
    RunRecord,
    SweepScheduler,
    register_scenario,
    scenario_fingerprint,
    task_key,
)
from repro.experiments.registry import _REGISTRY

CHEAP = {"benign_server_count": 10}


def make_record(seed: int = 1, scenario: str = "synthetic") -> RunRecord:
    return RunRecord(scenario=scenario, seed=seed,
                     params={"knob": seed, "defenses": ()},
                     metrics={"attack_succeeded": seed % 2 == 0,
                              "achieved_shift": float(seed)})


class _SyntheticScenario:
    """A registry scenario whose fingerprint the tests can mutate."""

    name = "synthetic"
    description = "fingerprint-mutation fixture"
    _defaults = {"knob": 0, "defenses": ()}

    def default_params(self):
        return dict(self._defaults)

    def optional_params(self):
        return ()

    def run(self, seed, params):  # pragma: no cover - never executed here
        return {"attack_succeeded": False}


@pytest.fixture
def synthetic_scenario():
    instance = _SyntheticScenario()
    register_scenario(instance)
    try:
        yield instance
    finally:
        _REGISTRY.pop(instance.name, None)


@pytest.fixture
def cache(tmp_path, synthetic_scenario):
    return RunCache(tmp_path / "store")


# -- hit/miss accounting -----------------------------------------------------

def test_miss_then_hit_accounting(cache):
    record = make_record(seed=3)
    assert cache.get_entry("synthetic", 3, record.params) is None
    cache.put(record)
    replayed, snapshot = cache.get_entry("synthetic", 3, record.params)
    assert snapshot is None
    assert replayed.metrics == {"attack_succeeded": False, "achieved_shift": 3.0}
    assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (1, 1, 1)
    assert cache.stats.hit_rate == 0.5
    assert "1/2 hits" in cache.stats.formatted()


def test_replayed_record_is_digest_identical(cache):
    """The canonical JSON (the digest input) survives the disk round-trip."""
    record = make_record(seed=4)
    cache.put(record)
    replayed, _ = cache.get_entry("synthetic", 4, record.params)
    canonical = json.dumps(record.canonical(), sort_keys=True, separators=(",", ":"))
    replay_canonical = json.dumps(replayed.canonical(), sort_keys=True,
                                  separators=(",", ":"))
    assert canonical == replay_canonical


def test_different_params_seed_and_scenario_do_not_collide(cache):
    cache.put(make_record(seed=1))
    assert cache.get_entry("synthetic", 2, {"knob": 2, "defenses": ()}) is None
    assert cache.get_entry("synthetic", 1, {"knob": 99, "defenses": ()}) is None
    fingerprint = scenario_fingerprint("synthetic")
    key_a = task_key("synthetic", 1, {"knob": 1}, fingerprint)
    key_b = task_key("synthetic", 1, {"knob": 2}, fingerprint)
    assert key_a != key_b


def test_cache_persists_across_instances(cache, tmp_path):
    cache.put(make_record(seed=5))
    reopened = RunCache(tmp_path / "store")
    assert reopened.get_entry("synthetic", 5, make_record(seed=5).params) is not None
    assert len(reopened) == 1


def test_editing_a_stored_or_replayed_record_never_changes_the_next_replay(cache):
    def fresh():
        return RunRecord(scenario="synthetic", seed=6,
                         params={"knob": 6, "defenses": ["a"]},
                         metrics={"l": [1], "d": {"k": 1}, "m": 0})

    params = fresh().params
    assert cache.get_entry("synthetic", 6, params) is None   # loads the shard
    stored = fresh()
    cache.put(stored)
    stored.metrics["l"].append(9)
    stored.params["defenses"].append("z")
    replayed, _ = cache.get_entry("synthetic", 6, params)
    assert replayed == fresh()
    replayed.metrics["m"] = 99
    replayed.metrics["l"].append(2)
    replayed.metrics["d"]["k"] = 2
    replayed.params["defenses"].append("b")
    again, _ = cache.get_entry("synthetic", 6, params)
    assert again == fresh()


# -- fingerprint invalidation -------------------------------------------------

def test_fingerprint_change_invalidates_entries(cache, synthetic_scenario):
    record = make_record(seed=7)
    cache.put(record)
    assert cache.get_entry("synthetic", 7, record.params) is not None

    synthetic_scenario._defaults = {"knob": 0, "defenses": (), "new_knob": True}
    changed = RunCache(cache.path)  # fresh instance: no memoised fingerprint
    assert changed.get_entry("synthetic", 7, record.params) is None  # silent miss
    assert len(changed) == 1  # the stale entry still occupies the store


# -- corruption tolerance ------------------------------------------------------

def test_truncated_store_file_recomputes_instead_of_crashing(cache, tmp_path):
    record = make_record(seed=9)
    cache.put(record)
    cache.put(make_record(seed=10))
    # Truncate every shard mid-line, simulating a torn final write.
    for shard in (tmp_path / "store").glob("runs-*.jsonl"):
        raw = shard.read_bytes()
        shard.write_bytes(raw[: len(raw) - 7])
    damaged = RunCache(tmp_path / "store")
    # The torn tail line is skipped; earlier whole lines still hit.
    outcomes = [damaged.get_entry("synthetic", seed, make_record(seed=seed).params)
                for seed in (9, 10)]
    assert damaged.stats.corrupt_lines >= 1
    assert any(outcome is None for outcome in outcomes) or damaged.stats.corrupt_lines
    # A miss is just recomputed and re-stored: the store self-heals.
    for seed, outcome in zip((9, 10), outcomes):
        if outcome is None:
            damaged.put(make_record(seed=seed))
    healed = RunCache(tmp_path / "store")
    for seed in (9, 10):
        assert healed.get_entry("synthetic", seed, make_record(seed=seed).params) is not None


def test_foreign_garbage_lines_are_skipped(cache, tmp_path):
    record = make_record(seed=11)
    cache.put(record)
    for shard in (tmp_path / "store").glob("runs-*.jsonl"):
        with shard.open("ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b'{"valid_json": "wrong shape"}\n')
            # Too deep for json.loads, which raises RecursionError.
            handle.write(b"[" * 100_000 + b"]" * 100_000 + b"\n")
    damaged = RunCache(tmp_path / "store")
    assert damaged.get_entry("synthetic", 11, record.params) is not None
    assert damaged.stats.corrupt_lines == 3


def test_duplicated_lines_collapse_to_a_single_entry(cache, tmp_path):
    """A crash-looped writer re-appending the same cell (duplicate key) must
    replay as one entry, last write wins, with the duplicates accounted."""
    record = make_record(seed=12)
    cache.put(record)
    (shard_file,) = (tmp_path / "store").glob("runs-*.jsonl")
    line = [raw for raw in shard_file.read_bytes().splitlines() if raw.strip()][0]
    with shard_file.open("ab") as handle:
        handle.write(line + b"\n" + line + b"\n")
    reopened = RunCache(tmp_path / "store")
    replayed, _ = reopened.get_entry("synthetic", 12, record.params)
    assert replayed.metrics == record.metrics
    assert len(reopened) == 1
    assert reopened.stats.duplicate_lines == 2
    assert "2 duplicate lines collapsed" in reopened.stats.formatted()
    # Distinct keys are unaffected by the accounting.
    cache.put(make_record(seed=13))
    fresh = RunCache(tmp_path / "store")
    assert fresh.get_entry("synthetic", 13, make_record(seed=13).params) is not None


def _drop_seed(entry):
    del entry["record"]["seed"]


def _drop_scenario(entry):
    del entry["record"]["scenario"]


def _obs_garbage(entry):
    entry["obs"] = "garbage"


def _obs_number(entry):
    entry["obs"] = 5


def _obs_counters_number(entry):
    entry["obs"] = {"counters": 5}


def _obs_counter_string(entry):
    # Valid JSON, but MetricsSnapshot.merge cannot add a string to a count.
    entry["obs"] = {"counters": {"dns.queries_forwarded": "lots"}}


def _obs_histogram_without_overflow(entry):
    entry["obs"] = {"histograms": {"h": {"bounds": [1.0], "counts": [1], "count": 1,
                                         "total": 1.0, "min": 1.0, "max": 1.0}}}


@pytest.mark.parametrize("collect_metrics", [False, True])
@pytest.mark.parametrize("damage", [_drop_seed, _drop_scenario, _obs_garbage,
                                    _obs_number, _obs_counters_number,
                                    _obs_counter_string, _obs_histogram_without_overflow])
def test_wrongly_shaped_valid_json_line_costs_one_recomputation(
        tmp_path, damage, collect_metrics):
    spec = ExperimentSpec(scenario="bgp_hijack", seeds=(1,), base_params=CHEAP)
    (cold,), _ = SweepScheduler(cache=RunCache(tmp_path / "rc"),
                                collect_metrics=True).run_specs([spec])
    (shard,) = (tmp_path / "rc").glob("runs-*.jsonl")
    (line,) = [line for line in shard.read_bytes().splitlines() if line.strip()]
    entry = json.loads(line)
    damage(entry)
    shard.write_bytes(json.dumps(entry).encode() + b"\n")
    damaged = RunCache(tmp_path / "rc")
    (warm,), stats = SweepScheduler(cache=damaged,
                                    collect_metrics=collect_metrics).run_specs([spec])
    assert damaged.stats.corrupt_lines == 1
    assert stats.cache_hits == 0 and stats.executed == 1
    assert warm.digest() == cold.digest()


# -- concurrent writers --------------------------------------------------------

def _writer(args):
    path, seeds = args
    cache = RunCache(path)
    for seed in seeds:
        cache.put(make_record(seed=seed))
    return len(seeds)


def test_parallel_writers_produce_a_consistent_store(cache, tmp_path):
    all_seeds = list(range(100))
    jobs = [(tmp_path / "store", all_seeds[i::4]) for i in range(4)]
    with multiprocessing.Pool(processes=4) as pool:
        written = pool.map(_writer, jobs)
    assert sum(written) == 100
    merged = RunCache(tmp_path / "store")
    assert len(merged) == 100
    assert merged.stats.corrupt_lines == 0
    for seed in all_seeds:
        assert merged.get_entry("synthetic", seed, make_record(seed=seed).params) is not None


# -- end-to-end through the scheduler ------------------------------------------

def test_runner_warm_cache_replays_digest_identically(tmp_path):
    spec = ExperimentSpec("bgp_hijack", seeds=(1, 2), base_params=CHEAP)
    (cold,), _ = SweepScheduler(cache=RunCache(tmp_path / "rc")).run_specs([spec])
    warm_cache = RunCache(tmp_path / "rc")
    (warm,), _ = SweepScheduler(cache=warm_cache).run_specs([spec])
    assert cold.digest() == warm.digest()
    assert cold.to_json() == warm.to_json()
    assert warm_cache.stats.hits == 2 and warm_cache.stats.misses == 0
