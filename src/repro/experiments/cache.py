"""Persistent, content-addressed cache of scenario runs.

Every task the experiment engine executes is a pure function of
``(scenario name, seed, fully-resolved params)`` — that purity is what makes
sweeps deterministic, and it also makes every run cacheable forever.  This
module keys each :class:`~repro.experiments.results.RunRecord` by the SHA-256
of a canonical JSON encoding of

* the scenario name,
* the scenario's *fingerprint* — a hash over the cache schema version and
  the scenario's ``default_params()``, so any change to a scenario's accepted
  parameters or their defaults silently invalidates all of its old entries
  (their keys can no longer be produced),
* the seed, and
* the fully-resolved parameter dict,

and stores the record in a sharded, append-only JSONL directory.  Re-running
a matrix with 100 extra seeds then only computes the 100 new seeds; every
previously-seen ``(scenario, seed, params)`` cell is replayed from disk
byte-identically (record canonicalisation is the same JSON used by
:meth:`ExperimentResult.to_json`, so digests match across cold and warm
runs).

Concurrency: writes go through a single ``O_APPEND`` ``write(2)`` of one
complete line, so concurrent writers (several schedulers, or several
processes sharing a cache directory) interleave whole lines rather than
bytes.  Readers skip lines that fail to parse — a torn or truncated line
costs one recomputation, never a crash — and duplicate keys resolve
last-line-wins.

Observability sidecar: an entry may carry the run's
:class:`~repro.obs.metrics.MetricsSnapshot` under an optional ``obs`` key.
The snapshot lives strictly *outside* the record — digests and cache keys
never see it — but it lets a metrics-collecting sweep replay a cached
cell's telemetry instead of losing it, so an interrupted campaign resumed
from the cache reports the same merged metrics as an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import Any, Optional

from ..obs.metrics import MetricsSnapshot
from .registry import get_scenario
from .results import RunRecord

#: Bump to orphan every existing cache entry after an incompatible change to
#: the key derivation or the stored-record layout.
CACHE_SCHEMA_VERSION = 1

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: One loaded shard: key -> (the entry as stored, its parsed metrics sidecar).
Shard = dict[str, tuple[dict, Optional[MetricsSnapshot]]]


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _copied(values: Mapping[str, Any]) -> dict[str, Any]:
    """``values`` with each list or dict value copied.  The ``Scenario``
    contract allows only scalars or small containers of scalars, so a
    record built on the copy shares nothing a caller can edit."""
    copied = dict(values)
    for key, value in values.items():
        if isinstance(value, (list, dict)):
            copied[key] = value.copy()
    return copied


def scenario_fingerprint(scenario_name: str) -> str:
    """Hash of the scenario's schema: its name and full default parameters.

    The fingerprint is folded into every cache key, so editing a scenario's
    ``default_params()`` (adding a knob, changing a default) automatically
    invalidates its cached runs without touching anyone else's.
    """
    scenario = get_scenario(scenario_name)
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "name": scenario_name,
        "defaults": scenario.default_params(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def task_key(scenario_name: str, seed: int, params: Mapping[str, Any],
             fingerprint: str) -> str:
    """Content address of one run: scenario + fingerprint + seed + params."""
    payload = {
        "scenario": scenario_name,
        "fingerprint": fingerprint,
        "seed": seed,
        "params": dict(params),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class CacheStats:
    """Hit/miss/write accounting for one :class:`RunCache` instance."""

    __slots__ = ("hits", "misses", "writes", "corrupt_lines", "duplicate_lines",
                 "write_errors")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_lines = 0
        self.duplicate_lines = 0
        self.write_errors = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def formatted(self) -> str:
        line = (f"{self.hits}/{self.lookups} hits "
                f"({self.hit_rate:.0%}), {self.writes} writes, "
                f"{self.corrupt_lines} corrupt lines skipped, "
                f"{self.duplicate_lines} duplicate lines collapsed")
        if self.write_errors:
            line += f", {self.write_errors} write errors (persistence disabled)"
        return line


class RunCache:
    """On-disk store of run records, addressed by :func:`task_key`.

    The store is a directory of ``runs-XX.jsonl`` shards (XX = first key
    byte), each line one entry.  Shards are parsed lazily on the first lookup
    that lands in them, so opening a large cache costs nothing until it is
    actually consulted.
    """

    SHARD_PREFIX = "runs-"

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        if path is None:
            path = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.path = Path(path)
        self.stats = CacheStats()
        self._shards: dict[str, Shard] = {}
        self._fingerprints: dict[str, str] = {}
        self._write_disabled = False
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # An unwritable cache location (read-only mount, permission
            # lockdown) must not kill the sweep: run uncached instead.
            self._disable_writes(exc)

    def _disable_writes(self, exc: OSError) -> None:
        """Degrade to the in-memory shard only; warn once, never raise.

        Disk persistence stops (ENOSPC, EACCES, read-only filesystem, ...),
        but lookups keep working from whatever was loaded plus records
        cached in memory during this process — the sweep completes, it just
        starts cold next time.
        """
        self.stats.write_errors += 1
        if not self._write_disabled:
            self._write_disabled = True
            warnings.warn(
                f"run cache at {self.path} is not writable ({exc}); "
                "continuing without persistence", RuntimeWarning, stacklevel=3)

    # -- key helpers ---------------------------------------------------------
    def fingerprint(self, scenario_name: str) -> str:
        """Memoised :func:`scenario_fingerprint` (stable per process)."""
        cached = self._fingerprints.get(scenario_name)
        if cached is None:
            cached = scenario_fingerprint(scenario_name)
            self._fingerprints[scenario_name] = cached
        return cached

    def key_for(self, scenario_name: str, seed: int, params: Mapping[str, Any]) -> str:
        return task_key(scenario_name, seed, params, self.fingerprint(scenario_name))

    # -- shard machinery -----------------------------------------------------
    def _shard_path(self, shard: str) -> Path:
        return self.path / f"{self.SHARD_PREFIX}{shard}.jsonl"

    def _load_shard(self, shard: str) -> Shard:
        loaded = self._shards.get(shard)
        if loaded is not None:
            return loaded
        entries: Shard = {}
        shard_path = self._shard_path(shard)
        try:
            raw = shard_path.read_bytes()
        except OSError:
            raw = b""
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                record = entry["record"]
                # Shape check so a valid-JSON-but-wrong line cannot produce
                # a broken RunRecord later.  The metrics sidecar is parsed
                # here, once per load, rather than on every replay.
                if not (isinstance(key, str) and isinstance(record["scenario"], str)
                        and isinstance(record["seed"], int)
                        and isinstance(record["params"], dict)
                        and isinstance(record["metrics"], dict)):
                    raise TypeError("malformed cache entry")
                obs = entry.get("obs")
                snapshot = MetricsSnapshot.from_dict(obs) if obs is not None else None
            except (ValueError, KeyError, TypeError, RecursionError):  # noqa: PERF203
                # Torn write, truncation, or foreign garbage: the line is
                # worth one recomputation, not a crash.  json.loads raises
                # ValueError, or RecursionError on absurdly deep nesting;
                # MetricsSnapshot.from_dict raises only ValueError.
                self.stats.corrupt_lines += 1
                continue
            # Repeated keys (a crash-looped writer re-appending the same
            # cell) collapse last-write-wins: one in-memory entry per key,
            # so replay memory is bounded by distinct cells, not file lines.
            if key in entries:
                self.stats.duplicate_lines += 1
            entries[key] = (entry, snapshot)
        self._shards[shard] = entries
        return entries

    def _shard_names_on_disk(self) -> Iterator[str]:
        prefix = self.SHARD_PREFIX
        for entry in sorted(self.path.glob(f"{prefix}*.jsonl")):
            yield entry.name[len(prefix):-len(".jsonl")]

    # -- lookup / insert -----------------------------------------------------
    def get_entry(self, scenario_name: str, seed: int, params: Mapping[str, Any]
                  ) -> Optional[tuple[RunRecord, Optional[MetricsSnapshot]]]:
        """The cached record *and* its metrics sidecar, or ``None`` (a miss).

        The snapshot slot is ``None`` for entries written without metrics
        (``put(record)`` with no snapshot — the default sweep path); callers
        that need full telemetry coverage should treat a missing sidecar as
        "telemetry lost to an untelemetered earlier run", never as an error.
        """
        key = self.key_for(scenario_name, seed, params)
        found = self._load_shard(key[:2]).get(key)
        if found is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry, snapshot = found
        record = entry["record"]
        return (RunRecord(scenario=record["scenario"], seed=record["seed"],
                          params=_copied(record["params"]),
                          metrics=_copied(record["metrics"])),
                snapshot)

    def put(self, record: RunRecord,
            metrics: Optional[MetricsSnapshot] = None) -> None:
        """Persist one run record (append-only, multi-process safe).

        ``metrics`` — the run's observability snapshot — is stored beside
        the record (never inside it: cache keys and digests are computed
        over the record alone, so a metrics-bearing entry and a bare one
        are interchangeable for determinism purposes).
        """
        key = self.key_for(record.scenario, record.seed, record.params)
        entry = {
            "key": key,
            "fingerprint": self.fingerprint(record.scenario),
            # Copied, so a caller's later edit of ``record`` is not replayed.
            "record": {**record.canonical(), "params": _copied(record.params),
                       "metrics": _copied(record.metrics)},
        }
        if metrics is not None and not metrics.is_empty():
            entry["obs"] = metrics.to_dict()
        else:
            metrics = None  # an empty sidecar is not stored
        # The leading newline makes appends self-healing: if the previous
        # write was torn (process killed mid-write, no trailing newline),
        # this write terminates the partial line instead of merging into it.
        # Readers skip the resulting blank lines.
        line = b"\n" + canonical_json(entry).encode() + b"\n"
        if not self._write_disabled:
            try:
                fd = os.open(self._shard_path(key[:2]),
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)
                self.stats.writes += 1
            except OSError as exc:
                self._disable_writes(exc)
        # The in-memory shard is updated even when the disk is gone, so
        # repeated lookups within this process still hit.  With writes
        # disabled the shard is force-loaded first: a later lazy load from
        # disk would not contain this entry and must not displace it.
        if self._write_disabled:
            self._load_shard(key[:2])[key] = (entry, metrics)
        else:
            shard = self._shards.get(key[:2])
            if shard is not None:
                shard[key] = (entry, metrics)

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        keys: set[str] = set()
        for shard in self._shard_names_on_disk():
            keys.update(self._load_shard(shard))
        return len(keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunCache {self.path} [{self.stats.formatted()}]>"
