"""Shared sweep-execution layer: the one way to run scenario cells.

:meth:`SweepScheduler.run_specs` is the single entry point, for one sweep
or many: it flattens the resolved cells of any list of
:class:`~repro.experiments.runner.ExperimentSpec`\\ s into a single task
stream, executes it on one shared pool, and reassembles the per-spec
:class:`~repro.experiments.results.ExperimentResult`\\ s in deterministic
order.  A defense matrix is one spec per row; fanning each row through its
own ``multiprocessing.Pool`` would pay the spawn cost per row and idle
every worker at the barrier between rows.

Guarantees:

* **Determinism** — every task is a pure function of ``(scenario, seed,
  params)`` and results are reassembled by task index, so the output is
  byte-identical no matter how many workers executed it, in which order the
  chunks completed, or how many of the records came from the cache.
* **Long-tail awareness** — tasks are dispatched in *guided* chunks
  (``remaining / (2 * workers)``, floor 1): early chunks are large to
  amortise IPC, late chunks shrink to single tasks so one slow scenario
  cannot leave the other workers idle at the end of the stream.
* **No idle workers** — the pool never outnumbers the usable CPUs, and
  when the (post-cache) pending task count does not exceed the worker
  count, no pool is forked: a pool that runs one task per worker costs
  more than the tasks themselves for this reproduction's scenarios.  The
  stream then runs inline as one-task chunks through the same loop that
  recovers a lost pool's chunks.
* **Incremental re-runs** — with a :class:`~repro.experiments.cache.RunCache`
  attached, previously-computed cells are replayed from disk and only the
  genuinely new ``(scenario, seed, params)`` combinations reach the pool;
  new records are written back as they complete (per task inline, per chunk
  pooled — always from the parent process, safe alongside other processes
  appending to the same store), so even an interrupted sweep resumes from
  everything it finished.
* **Crash isolation** — a task whose scenario raises comes back as a
  :class:`TaskFailure` marker instead of poisoning its whole chunk; failed
  tasks are retried inline (:data:`TASK_RETRIES` immediate attempts), and only
  permanent failures raise :class:`SweepError` — after the rest of the
  stream has completed and been persisted.
* **Pool-loss degradation** — a watchdog (``task_timeout`` seconds with no
  chunk completing) detects a lost pool (e.g. a SIGKILLed worker, whose
  in-flight chunk ``multiprocessing.Pool`` silently never redelivers); the
  pool is torn down and every unfinished chunk re-runs inline in the
  parent — in the loop every inline sweep takes, so the recovery path is
  the everyday path.  Tasks are pure functions of ``(scenario, seed,
  params)``, so the degraded sweep reproduces the healthy sweep's records
  byte for byte.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

from ..obs import capture as _obs_capture
from ..obs import current as _obs_current
from ..obs.metrics import MetricsSnapshot
from .cache import RunCache
from .results import ExperimentResult, RunRecord
from .runner import ExperimentSpec, Task, _execute_task, resolve_spec_tasks

#: How many times a task whose scenario raised is re-attempted (inline, in
#: the parent) before it counts as a permanent failure.
TASK_RETRIES = 1


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def guided_chunk_sizes(task_count: int, workers: int) -> list[int]:
    """Decreasing chunk sizes covering ``task_count`` tasks (guided
    self-scheduling, as in OpenMP's ``schedule(guided)``).

    Each chunk takes ``remaining / (2 * workers)`` tasks (minimum one), so
    dispatch overhead is amortised up front while the tail of the stream is
    handed out one task at a time for load balancing.
    """
    if task_count < 0:
        raise ValueError("task_count must be non-negative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    sizes: list[int] = []
    remaining = task_count
    while remaining > 0:
        size = max(1, remaining // (2 * workers))
        sizes.append(size)
        remaining -= size
    return sizes


@dataclass
class TaskFailure:
    """Picklable marker for a task whose scenario raised.

    Travels back through the pool in a chunk's record slot so one crashing
    task cannot poison its chunk-mates; the parent retries it inline and
    only then treats it as permanent.
    """

    task: Task
    error: str
    attempts: int = 1


class SweepError(RuntimeError):
    """Raised when tasks still fail after every retry.

    Carries the surviving :attr:`failures` and the sweep's :attr:`stats` —
    every *other* task's record has already been persisted to the cache, so
    a re-run after fixing the cause only recomputes the failed cells.
    """

    def __init__(self, failures: list[TaskFailure], stats: SweepStats) -> None:
        self.failures = failures
        self.stats = stats
        preview = "; ".join(f"{f.task[0]}(seed={f.task[1]}): {f.error}"
                            for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{len(failures)} task(s) failed after retries: {preview}{more}")


def _execute_task_guarded(task: Task, collect_metrics: bool
                          ) -> tuple[RunRecord, float, Optional[MetricsSnapshot]]:
    """Run one task, measuring its wall-time and (optionally) its metrics.

    Metrics collection wraps the run in a metrics-only observability
    capture (no trace ring buffer) so the scenario's instrumented layers
    record into a registry this function snapshots afterwards.  The
    facade is out of band — it draws no RNG and schedules nothing — so
    the returned :class:`RunRecord` is byte-identical either way.  A
    raising scenario yields a :class:`TaskFailure` in the record slot
    instead of propagating.
    """
    begun = time.perf_counter()
    try:
        if not collect_metrics:
            return _execute_task(task), time.perf_counter() - begun, None
        with _obs_capture(trace=False) as ob:
            record = _execute_task(task)
        return record, time.perf_counter() - begun, ob.metrics.snapshot()
    except Exception as exc:  # noqa: BLE001 - isolation seam: anything a scenario raises
        return TaskFailure(task=task, error=f"{type(exc).__name__}: {exc}"), 0.0, None


def _execute_chunk(job: tuple[int, list[Task], bool]
                   ) -> tuple[int, list[RunRecord], float,
                              list[Optional[MetricsSnapshot]]]:
    """Worker entry point: run a chunk, tagged with its stream offset.

    Returns the chunk's records plus its telemetry: summed task wall-time
    and one metrics snapshot slot per task (``None`` when metrics are
    off), aligned with the record slots — kept per task (not folded) so
    the parent can persist each task's snapshot beside its cache record
    and merge the stream in deterministic task order.  A crashing task
    contributes a :class:`TaskFailure` in its record slot; the rest of
    the chunk still completes.
    """
    start, tasks, collect_metrics = job
    records: list[RunRecord] = []
    snapshots: list[Optional[MetricsSnapshot]] = []
    task_seconds = 0.0
    for task in tasks:
        record, duration, snapshot = _execute_task_guarded(task, collect_metrics)
        records.append(record)
        snapshots.append(snapshot)
        task_seconds += duration
    return start, records, task_seconds, snapshots


#: Progress observer: called with ``(done, total)`` as the task stream
#: completes.  ``done`` counts cache replays plus executed tasks.
ProgressCallback = Callable[[int, int], None]


@dataclass
class SweepStats:
    """What one scheduler invocation did, for reporting and benchmarks."""

    tasks_total: int = 0
    cache_hits: int = 0
    executed: int = 0
    executed_inline: bool = False
    chunks: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Summed wall-time of every executed task (the work the pool's worker
    #: lanes actually did; cache replays contribute nothing).
    task_seconds_total: float = 0.0
    #: Merged per-task metrics (``collect_metrics=True`` only), folded in
    #: task-stream order — deterministic across worker counts and chunk
    #: completion order.  Cache replays contribute their *stored* snapshots
    #: (persisted beside the record by an earlier metrics-collecting
    #: sweep), so a warm or resumed sweep reports the same merged metrics
    #: as the cold run that computed the cells; cells cached by an
    #: untelemetered sweep replay without a snapshot and are counted in
    #: :attr:`metrics_missing`.
    metrics: Optional[MetricsSnapshot] = None
    #: Tasks whose metrics could not be recovered (cache hits written
    #: without an observability sidecar) in a ``collect_metrics`` sweep.
    metrics_missing: int = 0
    #: Tasks still failing after every retry (the sweep raised
    #: :class:`SweepError` carrying these stats).
    tasks_failed: int = 0
    #: Retry attempts made for tasks whose first execution raised.
    tasks_retried: int = 0
    #: ``on_progress`` callbacks that raised (swallowed, never fatal).
    callback_errors: int = 0
    #: Times the worker pool was declared lost (watchdog timeout or a
    #: broken pipe) and abandoned mid-stream.
    pool_losses: int = 0
    #: Whether any part of the stream fell back to inline execution after
    #: a pool loss or a failed pool start.
    degraded_to_inline: bool = False
    #: Trace events the *ambient* tracer (``REPRO_TRACE=1``) evicted from
    #: its ring buffer during this sweep — silent observability loss made
    #: visible.  Pool workers trace into their own processes, so this
    #: counts the parent's tracer only (inline execution and replay).
    trace_evictions: int = 0
    #: Cache writes that failed during this sweep (persistence degraded;
    #: see :meth:`RunCache._disable_writes`).
    cache_write_errors: int = 0
    #: Duplicate cache lines collapsed while loading shards during this
    #: sweep — a crash-looped earlier writer re-appending the same cells.
    cache_duplicate_lines: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of the task stream replayed from the cache."""
        return self.cache_hits / self.tasks_total if self.tasks_total else 0.0

    @property
    def worker_utilization(self) -> float:
        """Aggregate task time over available lane time (0..1).

        Inline execution has one lane; a pooled run has ``workers``.  Low
        utilization on a pooled sweep means workers idled — a long-tailed
        stream or one dominated by cache replay.
        """
        if self.elapsed_seconds <= 0.0:
            return 0.0
        lanes = 1 if self.executed_inline else self.workers
        return min(self.task_seconds_total / (lanes * self.elapsed_seconds), 1.0)

    def formatted(self) -> str:
        mode = "inline" if self.executed_inline else f"{self.workers} workers"
        line = (f"{self.tasks_total} tasks: {self.cache_hits} cached "
                f"({self.cache_hit_ratio:.0%} hit ratio), "
                f"{self.executed} executed ({mode}, {self.chunks} chunks) "
                f"in {self.elapsed_seconds:.2f}s")
        if self.executed:
            line += (f"; worker task time {self.task_seconds_total:.2f}s "
                     f"({self.worker_utilization:.0%} utilization)")
        if self.tasks_retried or self.tasks_failed:
            line += (f"; {self.tasks_retried} retries, "
                     f"{self.tasks_failed} permanent failures")
        if self.pool_losses:
            line += f"; {self.pool_losses} pool loss(es), degraded to inline"
        if self.callback_errors:
            line += f"; {self.callback_errors} progress-callback errors"
        if self.trace_evictions:
            line += (f"; {self.trace_evictions} trace events evicted "
                     f"(ring buffer full)")
        if self.cache_write_errors:
            line += (f"; cache degraded: {self.cache_write_errors} write "
                     f"error(s), persistence disabled")
        if self.cache_duplicate_lines:
            line += f"; {self.cache_duplicate_lines} duplicate cache lines collapsed"
        if self.metrics_missing:
            line += f"; {self.metrics_missing} cached task(s) without stored metrics"
        return line


class SweepScheduler:
    """Executes task streams for one or many sweeps on a single shared pool.

    Parameters
    ----------
    workers:
        Maximum worker processes, capped at :func:`usable_cpus`.  ``1``
        always runs inline.
    cache:
        Optional :class:`RunCache`; hits skip execution, misses are written
        back as they complete.
    on_progress:
        Optional callback invoked with ``(done, total)`` as tasks complete —
        once after cache replay, then per task inline or per completed chunk
        pooled — so long sweeps (million-client population shards) are not
        silent for minutes.  Called from the parent process only; a raising
        callback is counted in ``SweepStats.callback_errors`` and swallowed
        — observers never abort a sweep.
    collect_metrics:
        When True, every executed task runs under a metrics-only
        observability capture and the per-task snapshots are merged into
        ``SweepStats.metrics`` (shipped back through the pool one snapshot
        per task).  Records are byte-identical either way; the
        default keeps the hot path free of the capture.
    task_timeout:
        Watchdog: seconds to wait for *any* chunk to complete before the
        pool is declared lost and the remaining chunks re-run inline.
        ``None`` (the default) waits forever — appropriate when tasks are
        trusted to terminate.
    """

    def __init__(self, workers: int = 1, cache: Optional[RunCache] = None,
                 on_progress: Optional[ProgressCallback] = None,
                 collect_metrics: bool = False,
                 task_timeout: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = min(workers, usable_cpus())
        self.cache = cache
        self.on_progress = on_progress
        self.collect_metrics = collect_metrics
        self.task_timeout = task_timeout
        self._done = 0
        self._total = 0
        self._stats = SweepStats()

    def run_specs(self, specs: Sequence[ExperimentSpec]
                  ) -> tuple[list[ExperimentResult], SweepStats]:
        """Run every spec's cells as one flattened stream; one result per spec.

        Each returned :class:`ExperimentResult` carries the records of its
        spec, in that spec's own task order; ``elapsed_seconds`` is the
        shared wall-clock of the whole stream (the per-spec share is not
        meaningful under a shared pool).  Raises :class:`SweepError` when
        any task still fails after every retry; by then the rest of the
        stream has completed and (with a cache attached) been persisted.
        """
        tasks: list[Task] = []
        boundaries: list[tuple[int, int]] = []
        for spec in specs:
            resolved = resolve_spec_tasks(spec)
            boundaries.append((len(tasks), len(tasks) + len(resolved)))
            tasks.extend(resolved)
        start_time = time.perf_counter()
        stats = SweepStats(tasks_total=len(tasks), workers=self.workers)
        records: list[Optional[RunRecord]] = [None] * len(tasks)
        snapshots: list[Optional[MetricsSnapshot]] = [None] * len(tasks)
        self._done = 0
        self._total = len(tasks)
        self._stats = stats
        ambient = _obs_current()
        evictions_before = ambient.trace.events_evicted if ambient.enabled else 0
        if self.cache is not None:
            writes_failed_before = self.cache.stats.write_errors
            duplicates_before = self.cache.stats.duplicate_lines

        pending: list[tuple[int, Task]] = []
        for index, task in enumerate(tasks):
            found = self.cache.get_entry(*task) if self.cache is not None else None
            if found is None:
                pending.append((index, task))
            else:
                records[index], snapshots[index] = found
        stats.cache_hits = len(tasks) - len(pending)
        self._report_progress(stats.cache_hits)

        stats.executed = len(pending)
        if pending:
            self._execute(pending, records, snapshots, stats)
        failures = [record for record in records if isinstance(record, TaskFailure)]

        if self.collect_metrics:
            # Task-stream order: the fold is deterministic no matter which
            # workers finished first or which cells replayed from the cache.
            stats.metrics = MetricsSnapshot.merge_all(snapshots)
            stats.metrics_missing = sum(
                1 for index, snap in enumerate(snapshots)
                if snap is None and not isinstance(records[index], TaskFailure))
        if ambient.enabled:
            stats.trace_evictions = ambient.trace.events_evicted - evictions_before
        if self.cache is not None:
            stats.cache_write_errors = (self.cache.stats.write_errors
                                        - writes_failed_before)
            stats.cache_duplicate_lines = (self.cache.stats.duplicate_lines
                                           - duplicates_before)
        stats.elapsed_seconds = time.perf_counter() - start_time
        if failures:
            stats.tasks_failed = len(failures)
            raise SweepError(failures, stats)
        results = [
            ExperimentResult(scenario=spec.scenario,
                             records=records[start:stop],  # type: ignore[arg-type]
                             elapsed_seconds=stats.elapsed_seconds)
            for spec, (start, stop) in zip(specs, boundaries)
        ]
        return results, stats

    def _report_progress(self, newly_done: int) -> None:
        self._done += newly_done
        if self.on_progress is not None and newly_done:
            try:
                self.on_progress(self._done, self._total)
            except Exception:  # noqa: BLE001 - observers must never abort the sweep
                self._stats.callback_errors += 1

    def _persist(self, records: Sequence[RunRecord],
                 snapshots: Sequence[Optional[MetricsSnapshot]]) -> None:
        """Write freshly-computed records to the cache as they arrive.

        Called per completed chunk rather than after the whole stream, so
        an interrupted sweep still resumes from everything it finished —
        the append-only store tolerates the partial run.  Each record's
        metrics snapshot (when collected) is persisted beside it in the
        same cache line, so the resumed sweep replays the telemetry too.
        :class:`TaskFailure` markers are never persisted (a later fixed
        re-run must recompute those cells).
        """
        if self.cache is not None:
            for record, snapshot in zip(records, snapshots):
                if not isinstance(record, TaskFailure):
                    self.cache.put(record, metrics=snapshot)

    def _execute(self, pending: list[tuple[int, Task]], records: list,
                 snapshots: list[Optional[MetricsSnapshot]], stats: SweepStats) -> None:
        """Run the pending ``(stream index, task)`` pairs into ``records``
        and ``snapshots`` at their stream indices.

        A slot may end up holding a :class:`TaskFailure` marker for a task
        that still failed after the retry pass; the caller decides whether
        that is fatal.
        """
        tasks = [task for _, task in pending]
        # A pool only pays off when there are more tasks than workers;
        # otherwise fork/teardown costs more than the tasks themselves, and
        # the stream runs inline as one-task chunks.
        stats.executed_inline = self.workers == 1 or len(tasks) <= self.workers
        sizes = ([1] * len(tasks) if stats.executed_inline
                 else guided_chunk_sizes(len(tasks), self.workers))
        jobs: list[tuple[int, list[Task], bool]] = []
        offset = 0
        for size in sizes:
            jobs.append((offset, tasks[offset:offset + size], self.collect_metrics))
            offset += size
        stats.chunks = len(jobs)

        finished: set[int] = set()

        def consume(result) -> None:
            start, chunk_records, task_seconds, chunk_snapshots = result
            self._persist(chunk_records, chunk_snapshots)
            chunk = pending[start:start + len(chunk_records)]
            for (index, _), record, snapshot in zip(chunk, chunk_records, chunk_snapshots):
                records[index] = record
                snapshots[index] = snapshot
            finished.add(start)
            stats.task_seconds_total += task_seconds
            self._report_progress(len(chunk_records))

        pool = None
        if not stats.executed_inline:
            try:
                pool = multiprocessing.Pool(processes=self.workers)
            except OSError:
                # Could not even start the pool (fork/pipe exhaustion): the
                # whole stream degrades to inline execution below.
                stats.degraded_to_inline = True
        if pool is not None:
            try:
                # Unordered completion + index-tagged chunks: fast workers
                # move on to the next chunk immediately, determinism comes
                # from consume()'s reassembly rather than from dispatch order.
                stream = pool.imap_unordered(_execute_chunk, jobs)
                for _ in range(len(jobs)):
                    try:
                        consume(stream.next(timeout=self.task_timeout))
                    except StopIteration:  # noqa: PERF203 — watchdog needs per-chunk except
                        break
                    except (multiprocessing.TimeoutError, OSError, EOFError):
                        # No chunk completed within the watchdog window, or
                        # the result pipe itself broke.  A SIGKILLed pool
                        # worker loses its in-flight chunk forever (the pool
                        # respawns the process but never redelivers the
                        # chunk), so a silent stream is our only signal.
                        # Declare the pool lost.
                        stats.pool_losses += 1
                        stats.degraded_to_inline = True
                        break
            finally:
                pool.terminate()
                pool.join()
        # Every chunk no pool delivered runs here in the parent: the whole
        # stream when inline, the unfinished chunks after a pool loss.
        # Tasks are pure, so recomputing a lost chunk (even one a dead
        # worker had partially finished) reproduces identical records.
        for job in jobs:
            if job[0] not in finished:
                consume(_execute_chunk(job))
        self._retry_failures(records, stats, snapshots)

    def _retry_failures(self, results: list, stats: SweepStats,
                        snapshots: list[Optional[MetricsSnapshot]]) -> None:
        """Re-attempt every :class:`TaskFailure` in ``results``, in place.

        Retries run inline in the parent, one immediately after another; a
        recovered task's record (and metrics snapshot) is persisted exactly as
        a first-try success would have been.  Markers that survive all
        attempts stay in the list for the caller to report.
        """
        for index, failure in enumerate(results):
            if not isinstance(failure, TaskFailure):
                continue
            for _ in range(TASK_RETRIES):
                stats.tasks_retried += 1
                retried, duration, snapshot = _execute_task_guarded(
                    failure.task, self.collect_metrics)
                stats.task_seconds_total += duration
                if isinstance(retried, TaskFailure):
                    failure = TaskFailure(failure.task, retried.error,
                                          attempts=failure.attempts + 1)
                    continue
                snapshots[index] = snapshot
                self._persist((retried,), (snapshot,))
                results[index] = retried
                break
            else:
                results[index] = failure

