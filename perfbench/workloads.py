"""The four benchmark workloads.

Every workload runs single-process and inline (``workers=1``): on a 2-CPU
host the worker pool's start-up and scheduling noise would swamp the
changes this benchmark exists to measure.

A workload is built from ``--seed`` (the same seed gives the same inputs),
pays its set-up in :meth:`Workload.setup`, and then runs *passes*: a pass
is a timed batch of operations (about a second of work) followed by its
correctness checks.  The untimed checks come back as :attr:`Pass.verify`,
so the traced run can call them after the wrappers are removed.  Measured
passes time the host-speed kernel between operations (see
:mod:`hostspeed`); the kernel's time is kept out of every figure.

======================  ==========================  ========================
workload                one operation (latency)      throughput counts
======================  ==========================  ========================
``grid_cold``           one matrix cell              cells
``serving_mix``         one query's ``run`` window    queries
``fleet``               one cohort                   clients
``campaign_warm``       one warm campaign re-run     cells replayed
======================  ==========================  ========================
"""

from __future__ import annotations

import random
import shutil
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "examples")]

from campaign_study import reduced_manifest  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

from repro import obs  # noqa: E402
from repro.campaign import CampaignManifest, CampaignRunner  # noqa: E402
from repro.defenses.transport import EncryptedTransport  # noqa: E402
from repro.dns.records import RecordType  # noqa: E402
from repro.experiments import (  # noqa: E402
    RunCache,
    SweepScheduler,
    TestbedConfig,
    build_testbed,
    run_defense_matrix,
)
from repro.experiments.matrix import (  # noqa: E402
    DEFAULT_ATTACKS,
    DEFAULT_STACKS,
    matrix_specs,
)
from repro.experiments.runner import resolve_spec_tasks  # noqa: E402
from repro.obs import MetricsSnapshot  # noqa: E402
from repro.population.scenario import (  # noqa: E402
    combine_cohort_metrics,
    population_specs,
)

#: Full default grid at seeds (1, 2), pinned when the downgrade row and
#: the DoT columns joined the matrix.
GRID_DIGEST = "7ae32a72cca2adb6b2b62fbf2dd6cd30e97e0eb27a678b975502e7dda9c8d4b4"
PINNED_SEEDS = (1, 2)


@dataclass
class Pass:
    """One timed batch of operations."""

    ops: int
    wall: float
    latencies: list[float]
    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Deferred checks: returns (failed operations, messages).
    verify: Optional[Callable[[], tuple[int, list[str]]]] = None
    #: ``repro.obs`` counters of the pass (metrics-on passes only).
    metrics: Optional[Any] = None
    #: Host slowdown next to each operation (1.0 for unscaled passes).
    slowdowns: list[float] = field(default_factory=list)

    def scaled(self) -> tuple[list[float], float]:
        """Latencies and wall divided by the host slowdown next to each
        operation (see :mod:`hostspeed`)."""
        slowdowns = self.slowdowns or [1.0] * len(self.latencies)
        latencies = [latency / slow for latency, slow in zip(self.latencies, slowdowns)]
        busy = sum(self.latencies)
        return latencies, self.wall * sum(latencies) / busy if busy else self.wall

    def finish(self) -> None:
        if self.verify is not None:
            failed, messages = self.verify()
            self.verify = None
            self.failed += failed
            self.failures += messages


class _Stopwatch:
    """Latency of each completed scheduler task, from progress callbacks;
    samples the host speed between tasks."""

    def __init__(self, speed: Optional[HostSpeed]) -> None:
        self.latencies: list[float] = []
        self.speed = speed
        self._last = time.perf_counter()

    def start(self) -> None:
        self._last = time.perf_counter()

    def __call__(self, _done: int, _total: int) -> None:
        self.latencies.append(time.perf_counter() - self._last)
        if self.speed is not None:
            self.speed.after_op()
        self._last = time.perf_counter()


def _timed(ops: int, started: float, latencies: list[float], attempted: int,
           speed: Optional[HostSpeed], **fields: Any) -> Pass:
    """A pass that began at ``started``, minus the host-speed kernel's time."""
    wall = time.perf_counter() - started
    if speed is None:
        return Pass(ops=ops, wall=wall, latencies=latencies, attempted=attempted,
                    **fields)
    return Pass(ops=ops, wall=wall - speed.spent, latencies=latencies,
                attempted=attempted, slowdowns=speed.op_slowdowns(), **fields)


def _seed_window(seed: int, count: int, size: int) -> list[tuple[int, ...]]:
    """``count`` windows of ``size`` distinct seeds drawn from ``seed``."""
    rng = random.Random(seed)
    drawn = rng.sample(range(3, 100_000), count * size)
    return [tuple(drawn[i * size:(i + 1) * size]) for i in range(count)]


class Workload:
    name = ""
    #: The host-speed kernel that does this workload's kind of work.
    kernel = "python"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Everything before the first timed operation can start."""

    def run_pass(self, index: int) -> Pass:
        """The ``index``-th measured pass."""
        raise NotImplementedError

    def run_unit(self, metrics: bool = False) -> Pass:
        """The fixed batch the traced run repeats (same work every call);
        ``metrics`` turns on ``repro.obs`` metrics collection."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class GridCold(Workload):
    """The default 6-attack × 12-stack matrix, cold, into a fresh run cache.

    Passes cycle through the pinned window ``(1, 2)`` and three windows
    drawn from the seed.  The pinned window must reproduce the pinned
    digest, and every window must repeat its first digest.
    """

    name = "grid_cold"

    def setup(self) -> None:
        self.windows = [PINNED_SEEDS, *_seed_window(self.seed, 3, len(PINNED_SEEDS))]
        self.digests: dict[tuple[int, ...], str] = {}
        self._fresh = 0
        # Task resolution loads every scenario module and merges its
        # defaults into each cell, so the first timed pass does not pay it.
        for window in self.windows:
            for spec in matrix_specs(DEFAULT_ATTACKS, DEFAULT_STACKS, window):
                resolve_spec_tasks(spec)

    def _grid(self, window: tuple[int, ...], metrics: bool = False,
              speed: Optional[HostSpeed] = None) -> Pass:
        self._fresh += 1
        cache_dir = self.workdir / f"cache-{self._fresh}"
        watch = _Stopwatch(speed)
        started = time.perf_counter()
        watch.start()
        matrix = run_defense_matrix(seeds=window, workers=1,
                                    cache=RunCache(cache_dir),
                                    on_progress=watch, collect_metrics=metrics)
        cells = len(matrix.cells) * len(window)

        def verify() -> tuple[int, list[str]]:
            shutil.rmtree(cache_dir, ignore_errors=True)
            stats = matrix.sweep_stats
            digest = matrix.digest()
            expected = GRID_DIGEST if window == PINNED_SEEDS else self.digests.get(window)
            self.digests.setdefault(window, digest)
            problems = []
            if expected is not None and digest != expected:
                problems.append(f"grid digest {digest} != {expected} at seeds {window}")
            if stats.executed != cells or stats.cache_hits:
                problems.append(f"grid not cold: {stats.formatted()}")
            return (cells if problems else 0), problems

        return _timed(cells, started, watch.latencies, cells, speed, verify=verify,
                      metrics=matrix.sweep_stats.metrics if metrics else None)

    def run_pass(self, index: int) -> Pass:
        return self._grid(self.windows[index % len(self.windows)], speed=HostSpeed(self.kernel))

    def run_unit(self, metrics: bool = False) -> Pass:
        return self._grid(PINNED_SEEDS, metrics)


#: The serving worlds of ``benchmarks/bench_serving_throughput.py``:
#: queries are 10 s apart, so the pooled config keeps its stream open
#: across the gap while the 0-RTT config lets it expire and resumes from
#: its session ticket on every query.
SERVING_CONFIGS = {
    "udp": (),
    "dot_cold": ("encrypted_transport",),
    "dot_reused": (EncryptedTransport(reuse_connections=True, idle_timeout=60.0),),
    "dot_0rtt": (EncryptedTransport(zero_rtt=True, idle_timeout=5.0),),
}
#: Simulated time-to-answer: (first query, every later query).
SERVING_ANSWER_TIMES = {
    "udp": (0.020, 0.020),
    "dot_cold": (0.060, 0.060),
    "dot_reused": (0.060, 0.020),
    "dot_0rtt": (0.060, 0.020),
}
QUERY_GAP = 10.0
QUERY_WINDOW = 9.0
ROUNDS_PER_PASS = 400
ROUNDS_PER_UNIT = 250


class ServingMix(Workload):
    """Closed loop, one query outstanding: round-robin cache-missing lookups
    of ``pool.ntp.org`` over four attacker-free testbeds."""

    name = "serving_mix"

    def setup(self) -> None:
        self.testbeds = self._build()
        self.sent = dict.fromkeys(SERVING_CONFIGS, 0)

    def _build(self) -> dict[str, Any]:
        return {label: build_testbed(TestbedConfig(seed=self.seed, defenses=defenses,
                                                   with_attacker=False))
                for label, defenses in SERVING_CONFIGS.items()}

    def _serve(self, testbeds: dict[str, Any], sent: dict[str, int],
               rounds: int, speed: Optional[HostSpeed] = None) -> Pass:
        latencies: list[float] = []
        failures: list[str] = []
        perf = time.perf_counter
        started = perf()
        for _ in range(rounds):
            for label, testbed in testbeds.items():
                index = sent[label]
                sent[label] = index + 1
                at = index * QUERY_GAP
                simulator = testbed.simulator
                resolver = testbed.resolver
                simulator.schedule_at(at, lambda r=resolver: r.trigger_lookup("pool.ntp.org"))
                begun = perf()
                simulator.run(until=at + QUERY_WINDOW)
                latencies.append(perf() - begun)
                entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
                first, later = SERVING_ANSWER_TIMES[label]
                expected = first if index == 0 else later
                if entry is None or entry.inserted_at < at:
                    failures.append(f"{label} query {index}: unanswered")
                elif abs(entry.inserted_at - at - expected) > 1e-6:
                    failures.append(f"{label} query {index}: answered after "
                                    f"{entry.inserted_at - at:.6f}s, expected {expected}s")
                if speed is not None:
                    speed.after_op()
        opened = testbeds["dot_reused"].resolver.upstream_transport.connections_opened
        if opened != 1:
            failures.append(f"dot_reused opened {opened} connections, expected 1")
        queries = rounds * len(testbeds)
        return _timed(queries, started, latencies, queries, speed,
                      failed=min(len(failures), queries), failures=failures)

    def run_pass(self, index: int) -> Pass:
        return self._serve(self.testbeds, self.sent, ROUNDS_PER_PASS, HostSpeed(self.kernel))

    def run_unit(self, metrics: bool = False) -> Pass:
        # Fresh worlds each time, so every unit does identical work.
        if not metrics:
            return self._serve(self._build(), dict.fromkeys(SERVING_CONFIGS, 0),
                               ROUNDS_PER_UNIT)
        with obs.capture(trace=False) as observed:
            result = self._serve(self._build(), dict.fromkeys(SERVING_CONFIGS, 0),
                                 ROUNDS_PER_UNIT)
        result.metrics = observed.metrics.snapshot()
        return result


#: ``FLEET_PARAMS`` of ``benchmarks/bench_population_scale.py`` on the
#: numpy backend.
FLEET_PARAMS = {
    "resolvers": 1024,
    "stagger_window": 86400.0,
    "update_rounds": 5,
    "backend": "numpy",
}
FLEET_CLIENTS = 1_000_000
FLEET_COHORT = FLEET_CLIENTS // 8


class Fleet(Workload):
    """The 10⁶-client ``population_sweep`` in 8 cohorts through the scheduler,
    warm; a pass sweeps seed 1 and one seed drawn from ``--seed``."""

    name = "fleet"
    kernel = "python+numpy"

    def setup(self) -> None:
        self.seeds = [1, *_seed_window(self.seed, 1, 1)[0]]
        self.digests: dict[int, str] = {}
        # One cohort per seed builds the hypergeometric tables and the
        # per-population poison-time map, and warms numpy.
        warm = population_specs(clients=FLEET_COHORT, cohort_size=FLEET_COHORT,
                                seeds=tuple(self.seeds), base_params=FLEET_PARAMS)
        SweepScheduler(workers=1).run_specs(warm)

    def _sweeps(self, seeds: tuple[int, ...], metrics: bool = False,
                speed: Optional[HostSpeed] = None) -> Pass:
        """One full fleet sweep per seed, timed as one pass."""
        watch = _Stopwatch(speed)
        results = []
        merged = []
        started = time.perf_counter()
        for seed in seeds:
            specs = population_specs(clients=FLEET_CLIENTS, cohort_size=FLEET_COHORT,
                                     seeds=(seed,), base_params=FLEET_PARAMS)
            watch.start()
            (result,), stats = SweepScheduler(workers=1, on_progress=watch,
                                              collect_metrics=metrics).run_specs(specs)
            results.append(result)
            merged.append(stats.metrics)
        cohorts = sum(len(result.records) for result in results)

        def verify() -> tuple[int, list[str]]:
            problems = []
            for seed, result in zip(seeds, results):
                fleet = combine_cohort_metrics([record.metrics for record in result.records])
                digest = result.digest()
                expected = self.digests.setdefault(seed, digest)
                histogram = sum(fleet["poison_histogram"])
                if histogram != FLEET_CLIENTS:
                    problems.append(f"poison histogram sums to {histogram} at seed {seed}")
                if fleet["clients"] != FLEET_CLIENTS:
                    problems.append(f"fleet reports {fleet['clients']} clients at seed {seed}")
                if digest != expected:
                    problems.append(f"fleet digest {digest} != {expected} at seed {seed}")
            return (cohorts if problems else 0), problems

        return _timed(FLEET_CLIENTS * len(seeds), started, watch.latencies, cohorts,
                      speed, verify=verify,
                      metrics=MetricsSnapshot.merge_all(merged) if metrics else None)

    def run_pass(self, index: int) -> Pass:
        return self._sweeps(tuple(self.seeds), speed=HostSpeed(self.kernel))

    def run_unit(self, metrics: bool = False) -> Pass:
        return self._sweeps((self.seeds[0],), metrics)


CAMPAIGN_SEEDS = 4
RERUNS_PER_PASS = 40
RERUNS_PER_UNIT = 20


class CampaignWarm(Workload):
    """The reduced campaign of ``examples/campaign_study.py``, filled cold
    during set-up and then re-run warm: every re-run replays each cell
    through the run cache, writes the journal and renders the report."""

    name = "campaign_warm"

    def setup(self) -> None:
        spec = reduced_manifest(CAMPAIGN_SEEDS)
        spec["seeds"] = [seed for (seed,) in _seed_window(self.seed, CAMPAIGN_SEEDS, 1)]
        self.manifest = CampaignManifest.from_spec(spec)
        self.directory = self.workdir / "campaign"
        cold = CampaignRunner(self.manifest, self.directory).run()
        self.cells = sum(outcome.telemetry.get("tasks", 0) for outcome in cold.outcomes)
        self.digests = cold.step_digests()
        self.report = (cold.report_dir / "report.md").read_bytes()

    def _rerun(self, reruns: int, speed: Optional[HostSpeed] = None) -> Pass:
        latencies: list[float] = []
        results = []
        perf = time.perf_counter
        started = perf()
        for _ in range(reruns):
            begun = perf()
            results.append(CampaignRunner(self.manifest, self.directory).run())
            latencies.append(perf() - begun)
            if speed is not None:
                speed.after_op()

        def verify() -> tuple[int, list[str]]:
            problems = []
            for result in results:
                executed = sum(outcome.telemetry.get("executed", 0)
                               for outcome in result.outcomes)
                if executed:
                    problems.append(f"warm re-run executed {executed} cells")
                if result.step_digests() != self.digests:
                    problems.append("warm step digests differ from the cold run")
                if (result.report_dir / "report.md").read_bytes() != self.report:
                    problems.append("warm report differs from the cold run")
            return min(len(problems), reruns), problems

        return _timed(self.cells * reruns, started, latencies, reruns, speed,
                      verify=verify)

    def run_pass(self, index: int) -> Pass:
        return self._rerun(RERUNS_PER_PASS, HostSpeed(self.kernel))

    def run_unit(self, metrics: bool = False) -> Pass:
        if not metrics:
            return self._rerun(RERUNS_PER_UNIT)
        with obs.capture(trace=False) as observed:
            result = self._rerun(RERUNS_PER_UNIT)
        result.metrics = observed.metrics.snapshot()
        return result


WORKLOADS = {cls.name: cls for cls in (GridCold, ServingMix, Fleet, CampaignWarm)}


def grid_row(args: tuple, kwargs: dict) -> Optional[str]:
    """The matrix row a ``run_scenario(name, seed, params)`` call belongs to.

    The most specific row wins: ``chronos_24h_hijack`` shares
    ``chronos_poisoning``'s parameters and adds its own.
    """
    name = args[0] if args else kwargs.get("name")
    params = (args[2] if len(args) > 2 else kwargs.get("params")) or {}
    for attack in _ROWS_BY_SPECIFICITY:
        if attack.scenario == name and all(
                params.get(key) == value for key, value in attack.params.items()):
            return attack.label
    return None


_ROWS_BY_SPECIFICITY = sorted(DEFAULT_ATTACKS, key=lambda attack: -len(attack.params))
