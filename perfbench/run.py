#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced for ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs the workload's fixed
traced unit (untraced, traced and metrics-on, three times each,
interleaved) and reports per-layer self time, shares and work counts.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Working files go to
``.perfbench/`` under the current directory; the traced run leaves its
full report and its spans in ``.perfbench/trace/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from layers import COUNTS, LAYERS, OBS_PAIRS, RATIOS, Tracing
from spans import SpanRecorder

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Host-speed kernel runs on each side of a set-up probe.
PROBE_KERNELS = 10
#: Rounds of (untraced, traced, metrics-on) units in a traced run; the
#: overhead ratios compare the medians of each kind.
TRACE_ROUNDS = 3
PROBE_TIMEOUT_S = 120


def workdir_for(name: str) -> Path:
    return Path.cwd() / ".perfbench" / f"{name}-{os.getpid()}"


# -- set-up time -----------------------------------------------------------------
def probe(name: str, seed: int, started: float) -> int:
    """Child side: set up from a fresh interpreter, print seconds since spawn."""
    workload = workloads.WORKLOADS[name](seed, workdir_for(name))
    try:
        workload.setup()
        print(f"{time.monotonic() - started:.9f}")
    finally:
        workload.close()
    return 0


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """Spawn-to-ready time of :data:`SETUP_PROBES` fresh interpreters, each
    with the host slowdown measured around it."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = hostspeed.slowdown_now(PROBE_KERNELS)
        started = time.monotonic()
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-probe", repr(started)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        slowdown = (before + hostspeed.slowdown_now(PROBE_KERNELS)) / 2
        samples.append((float(child.stdout.strip().splitlines()[-1]), slowdown))
    return samples


# -- untraced run ----------------------------------------------------------------
def measure(workload: workloads.Workload, seconds: float) -> list[workloads.Pass]:
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        done = workload.run_pass(len(passes))
        done.finish()
        passes.append(done)
    return passes


def end_to_end(passes: list[workloads.Pass], setup: list[tuple[float, float]],
               scaled: bool = True) -> dict[str, tuple]:
    """Throughput over the whole run, latency percentiles over every
    operation, and the median set-up time.  ``scaled`` divides every timing
    by the host slowdown measured next to it (see :mod:`hostspeed`).

    A latency percentile is reported as the mean of the 21 percentiles
    within 10 points of it.  The grid's cells form clusters by attack row,
    and its median falls at the edge of one: the plain 50th percentile
    moved by 17% of its value between runs, the smoothed one by 3%."""
    timings = [done.scaled() if scaled else (done.latencies, done.wall) for done in passes]
    percentiles = statistics.quantiles([latency for latencies, _ in timings
                                        for latency in latencies],
                                       n=100, method="inclusive")

    def smoothed(percent: int) -> float:
        return statistics.fmean(percentiles[percent - 11:percent + 10])

    return {
        "setup_s": (statistics.median(seconds / (slowdown if scaled else 1.0)
                                      for seconds, slowdown in setup), "s"),
        "ops_per_s": (sum(done.ops for done in passes)
                      / sum(wall for _, wall in timings), "1/s"),
        "op_p50_ms": (smoothed(50) * 1e3, "ms"),
        "op_p75_ms": (smoothed(75) * 1e3, "ms"),
    }


# -- traced run ------------------------------------------------------------------
def timed_unit(workload: workloads.Workload, metrics: bool = False,
               recorder: SpanRecorder | None = None
               ) -> tuple[workloads.Pass, float]:
    tracing = Tracing(recorder, workloads.grid_row) if recorder is not None else None
    try:
        started = time.perf_counter()
        done = workload.run_unit(metrics)
        wall = time.perf_counter() - started
    finally:
        if tracing is not None:
            tracing.restore()
    done.finish()
    return done, wall


def work_counts(recorder: SpanRecorder) -> dict[str, float]:
    counts = dict(recorder.counts)
    counts["dns.codec.decode_errors"] = counts.get("DNSMessage.decode.raised", 0)
    report = {f"{layer}.{name}": counts.get(f"{layer}.{name}", 0)
              for layer, names in COUNTS.items() for name in names}
    for ratio, (numerator, parts) in RATIOS.items():
        total = sum(counts.get(part, 0) for part in parts)
        report[ratio] = counts.get(numerator, 0) / total if total else 0.0
    extras = {key: value for key, value in counts.items() if key not in report}
    return {**report, **{f"internal.{key}": value for key, value in extras.items()}}


def counter_mismatches(counts: dict[str, float], snapshot) -> list[dict]:
    mismatches = []
    for ours, theirs in OBS_PAIRS.items():
        mine = counts.get(ours, counts.get(f"internal.{ours}", 0))
        observed = sum(snapshot.counter_total(name) for name in theirs) if snapshot else 0
        if mine != observed:
            mismatches.append({"benchmark": ours, "value": mine,
                               "obs": list(theirs), "obs_value": observed})
    return mismatches


def traced(workload: workloads.Workload
           ) -> tuple[dict, dict, list[workloads.Pass], SpanRecorder]:
    walls: dict[str, list[float]] = {"untraced": [], "traced": [], "metrics": []}
    recorders: list[SpanRecorder] = []
    snapshots = []
    passes = []
    for _ in range(TRACE_ROUNDS):
        done, wall = timed_unit(workload)
        walls["untraced"].append(wall)
        passes.append(done)
        recorder = SpanRecorder(LAYERS)
        done, wall = timed_unit(workload, recorder=recorder)
        walls["traced"].append(wall)
        recorders.append(recorder)
        passes.append(done)
        done, wall = timed_unit(workload, metrics=True)
        walls["metrics"].append(wall)
        snapshots.append(done.metrics)
        passes.append(done)

    counts = [work_counts(recorder) for recorder in recorders]
    observed = [dict(sorted(snapshot.to_dict()["counters"].items()))
                if snapshot is not None else {} for snapshot in snapshots]
    checks = workloads.Pass(ops=0, wall=0.0, latencies=[], attempted=2)
    if any(other != counts[0] for other in counts[1:]):
        checks.failed += 1
        checks.failures.append("work counts differ between traced passes: " + ", ".join(
            key for key in counts[0] if any(c.get(key) != counts[0][key] for c in counts)))
    if any(other != observed[0] for other in observed[1:]):
        checks.failed += 1
        checks.failures.append("repro.obs counters differ between metrics-on passes")
    passes.append(checks)

    # Per-layer times come from the traced unit with the median wall, so
    # that self times and the unattributed remainder add up to its wall.
    middle = sorted(range(TRACE_ROUNDS), key=walls["traced"].__getitem__)[TRACE_ROUNDS // 2]
    median_unit = recorders[middle]
    wall = walls["traced"][middle]
    metrics: dict[str, tuple] = {}
    for index, layer in enumerate(LAYERS):
        self_s = median_unit.self_s[index]
        metrics[f"{layer}.calls"] = (median_unit.calls[index], "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "ratio")
    total_self = median_unit.attributed_s()
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (wall - total_self, "s")
    metrics["trace.unattributed_share"] = ((wall - total_self) / wall, "ratio")
    for name, value in counts[0].items():
        if not name.startswith("internal."):
            unit = "ratio" if name in RATIOS else ("bytes" if "bytes" in name
                                                   else "count")
            metrics[name] = (value, unit)
    mismatches = counter_mismatches(counts[0], snapshots[0])
    untraced = statistics.median(walls["untraced"])
    metrics["obs.tracing_overhead_ratio"] = (
        statistics.median(walls["traced"]) / untraced, "ratio")
    metrics["obs.metrics_overhead_ratio"] = (
        statistics.median(walls["metrics"]) / untraced, "ratio")
    metrics["obs.counter_mismatches"] = (len(mismatches), "count")

    codec = LAYERS.index("dns.codec")
    rows = {}
    for attack in workloads.DEFAULT_ATTACKS:
        per_layer = median_unit.rows.get(attack.label, [0.0] * len(LAYERS))
        row_total = sum(per_layer)
        metrics[f"grid.row.{attack.label}.self_s"] = (row_total, "s")
        metrics[f"grid.row.{attack.label}.codec_share"] = (
            per_layer[codec] / row_total if row_total else 0.0, "ratio")
        rows[attack.label] = {
            "tasks": median_unit.row_tasks.get(attack.label, 0),
            "self_s": row_total,
            "layer_share": {layer: (value / row_total if row_total else 0.0)
                            for layer, value in zip(LAYERS, per_layer)},
        }

    report = {
        "walls_s": walls,
        "spans_per_traced_pass": [r.span_count for r in recorders],
        "counter_mismatches": mismatches,
        "work_counts": counts[0],
        "obs_counters": observed[0],
        "grid_rows": rows,
    }
    return metrics, report, passes, median_unit


def write_trace(name: str, seed: int, metrics: dict, report: dict,
                recorder: SpanRecorder) -> Path:
    """The full report (per seed) and the median traced unit's spans (per
    workload, overwritten by the next traced run)."""
    directory = Path.cwd() / ".perfbench" / "trace"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}-seed{seed}.json"
    payload = {"workload": name, "seed": seed,
               "metrics": {key: value for key, (value, _) in metrics.items()},
               **report}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    recorder.write_spans(directory / f"{name}-spans.tsv.gz")
    return path


def write_passes(name: str, seed: int, passes: list[workloads.Pass],
                 setup: list[tuple[float, float]]) -> None:
    """Every pass's raw timings, so other statistics can be computed later."""
    directory = Path.cwd() / ".perfbench" / "runs"
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": name, "seed": seed,
        "setup": [{"seconds": seconds, "slowdown": slowdown} for seconds, slowdown in setup],
        "passes": [{"ops": done.ops, "wall": done.wall,
                    "latencies": [round(latency, 7) for latency in done.latencies],
                    "slowdowns": [round(slow, 4) for slow in done.slowdowns]}
                   for done in passes],
    }
    (directory / f"{name}-seed{seed}.json").write_text(json.dumps(payload) + "\n",
                                                       encoding="utf-8")


# -- output ----------------------------------------------------------------------
def print_layers(metrics: dict) -> None:
    print(f"{'layer':<24}{'calls':>12}{'self_s':>10}{'share':>8}")
    for layer in LAYERS:
        print(f"{layer:<24}{metrics[f'{layer}.calls'][0]:>12,}"
              f"{metrics[f'{layer}.self_s'][0]:>10.3f}"
              f"{metrics[f'{layer}.share'][0]:>8.1%}")
    print(f"{'(unattributed)':<24}{'':>12}{metrics['trace.unattributed_s'][0]:>10.3f}"
          f"{metrics['trace.unattributed_share'][0]:>8.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    name, seed = options.workload, options.seed
    if options.setup_probe is not None:
        return probe(name, seed, options.setup_probe)

    setup = [] if options.trace else setup_seconds(name, seed)
    workload = workloads.WORKLOADS[name](seed, workdir_for(name))
    try:
        workload.setup()
        if options.trace:
            metrics, report, passes, recorder = traced(workload)
            print_layers(metrics)
            path = write_trace(name, seed, metrics, report, recorder)
            print(f"tracing overhead {metrics['obs.tracing_overhead_ratio'][0]:.2f}x, "
                  f"metrics overhead {metrics['obs.metrics_overhead_ratio'][0]:.2f}x, "
                  f"{len(report['counter_mismatches'])} counter mismatch(es); "
                  f"report: {path}")
        else:
            passes = measure(workload, options.seconds)
            metrics = end_to_end(passes, setup)
            raw = end_to_end(passes, setup, scaled=False)
            slowdowns = [slow for done in passes for slow in done.slowdowns]
            print("unscaled: " + ", ".join(f"{key} {value:.6g}"
                                           for key, (value, _) in raw.items())
                  + f"; host slowdown median {statistics.median(slowdowns):.3f} "
                  f"(range {min(slowdowns):.3f}-{max(slowdowns):.3f})")
            write_passes(name, seed, passes, setup)
    finally:
        workload.close()

    attempted = sum(done.attempted for done in passes)
    failed = sum(done.failed for done in passes)
    for message in [m for done in passes for m in done.failures][:10]:
        print(f"FAILED: {message}")
    print(f"{name}: {len(passes)} passes, {attempted} operations checked, "
          f"error rate {failed / max(attempted, 1):.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
