"""E-serving: high-QPS serving-layer gates — reuse, 0-RTT, RRL.

Four measurements on the serving layer this subsystem added:

1. **Per-query cost** — resolve the pool zone N times over plaintext UDP,
   cold-per-query strict DoT, pooled/reused DoT (RFC 7766 §6.2) and
   0-RTT-resumed DoT: the ``udp``, ``dot``, ``dot_reused`` and ``dot_0rtt``
   worlds of ``TRANSPORT_PROFILES``, timed by ``time_lookups``.  The gates assert the
   arithmetic the pooling exists for: a reused stream answers ≥ 2× faster
   (simulated) than a cold handshake per query, and a 0-RTT resumption
   lands within 1.5× of plaintext UDP.
2. **Attack success vs offered load** — the sustained-load fragmentation
   racer against a rate-limited nameserver at increasing trigger rates:
   the faster the attacker races, the larger the fraction of its races the
   token bucket starves.
3. **Serving matrix** — ``sustained_load`` and ``downgrade`` rows against
   the ``rrl`` / ``rrl_plus_dot`` / ``rrl_plus_dot_opp`` columns, run at
   ``workers=1`` and ``workers=2``; byte-identical digests, pinned at the
   default seeds.  The policy table inside it is the point: RRL throttles
   the sustained race but only the *strict* DoT pairing stops the
   downgrade attacker.

A JSON artifact (``BENCH_serving_throughput.json``) records the numbers
for CI archiving.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit

from repro.experiments import AttackSpec, run_scenario
from repro.experiments.matrix import SERVING_ATTACKS, SERVING_STACKS, run_defense_matrix
from repro.experiments.pins import SERVING_MATRIX_DIGEST
from repro.experiments.scenarios import time_lookups

SEED_COUNT = 2
QUERIES = int(os.environ.get("SERVING_QUERY_COUNT", "50"))

#: The timing worlds: rows of ``TRANSPORT_PROFILES``, ``dot`` being a cold
#: handshake per query.
SERVING_PROFILES = ("udp", "dot", "dot_reused", "dot_0rtt")

#: Offered-load sweep: seconds between sustained-load races.
LOAD_INTERVALS = (2.0, 1.0, 0.5, 0.25)


def serve(label, queries):
    """Time ``queries`` cache-missing lookups in one serving world."""
    started = time.perf_counter()
    testbed, answer_times = time_lookups(label, 42, queries)
    wall = time.perf_counter() - started
    assert None not in answer_times, f"{label}: unanswered queries {answer_times}"
    upstream = testbed.resolver.upstream_transport
    return {
        "simulated_time_to_answer": sum(answer_times) / len(answer_times),
        "wall_seconds_per_query": wall / queries,
        "wall_qps": queries / wall,
        "connections_opened": getattr(upstream, "connections_opened", 0),
        "connections_reused": getattr(upstream, "connections_reused", 0),
        "zero_rtt_queries": getattr(upstream, "zero_rtt_queries", 0),
    }


def offered_load_sweep():
    """Sustained-load race success vs trigger rate, behind RRL."""
    rows = []
    for interval in LOAD_INTERVALS:
        metrics = run_scenario(
            "frag_poisoning", seed=3,
            params={"trigger_count": 12, "trigger_interval": interval,
                    "defenses": ("response_rate_limit",)})
        rows.append({
            "offered_qps": round(1.0 / interval, 2),
            "races_run": metrics["races_run"],
            "races_poisoned": metrics["races_poisoned"],
            "rrl_dropped": metrics["rrl_dropped"],
            "rrl_slipped": metrics["rrl_slipped"],
        })
    return rows


def test_serving_throughput_gates(benchmark):
    seeds = tuple(range(1, SEED_COUNT + 1))
    attacks = (*SERVING_ATTACKS, AttackSpec("downgrade", "downgrade", {}))

    def workload():
        timings = {label: serve(label, QUERIES) for label in SERVING_PROFILES}
        loads = offered_load_sweep()
        sequential = run_defense_matrix(attacks=attacks, stacks=SERVING_STACKS,
                                        seeds=seeds, workers=1)
        parallel = run_defense_matrix(attacks=attacks, stacks=SERVING_STACKS,
                                      seeds=seeds, workers=2)
        return timings, loads, sequential, parallel

    timings, loads, sequential, parallel = benchmark.pedantic(
        workload, rounds=1, iterations=1)

    downgrade = sequential.success_table()["downgrade"]
    udp_time = timings["udp"]["simulated_time_to_answer"]
    cold_time = timings["dot"]["simulated_time_to_answer"]
    reused_time = timings["dot_reused"]["simulated_time_to_answer"]
    zero_rtt_time = timings["dot_0rtt"]["simulated_time_to_answer"]
    report = {
        "seed_count": SEED_COUNT,
        "queries_per_config": QUERIES,
        "simulated_time_to_answer": {
            label: round(figures["simulated_time_to_answer"], 4)
            for label, figures in timings.items()},
        "wall_seconds_per_query": {
            label: round(figures["wall_seconds_per_query"], 6)
            for label, figures in timings.items()},
        "wall_qps": {label: round(figures["wall_qps"], 1)
                     for label, figures in timings.items()},
        "pool_counters": {
            label: {key: figures[key] for key in
                    ("connections_opened", "connections_reused", "zero_rtt_queries")}
            for label, figures in timings.items()},
        "attack_success_vs_offered_load": loads,
        "serving_matrix": sequential.success_table(),
        "digest": sequential.digest(),
        "digest_pinned": SERVING_MATRIX_DIGEST if seeds == (1, 2) else None,
        "workers_identical": sequential.digest() == parallel.digest(),
    }
    json_path = "BENCH_serving_throughput.json"
    with Path(json_path).open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    emit("E-serving — high-QPS serving layer: connection reuse, 0-RTT, "
         "response-rate limiting", [
             "time-to-answer (simulated): " + ", ".join(
                 f"{label}={figures['simulated_time_to_answer'] * 1000:.1f}ms"
                 for label, figures in timings.items()),
             "wall clock per query: " + ", ".join(
                 f"{label}={figures['wall_seconds_per_query'] * 1000:.2f}ms"
                 for label, figures in timings.items()),
             "sustained race vs offered load: " + ", ".join(
                 f"{row['offered_qps']}qps={row['races_poisoned']}/{row['races_run']}"
                 for row in loads),
             f"downgrade success: {downgrade}",
             f"digest identical across workers: {report['workers_identical']}",
             f"report: {json_path}",
         ])

    # Gate (a): the pooling arithmetic.  A reused stream answers at least
    # twice as fast as a cold handshake per query, and a 0-RTT resumption
    # is within 1.5x of plaintext UDP.
    assert cold_time >= reused_time * 2, (
        f"reused DoT not >= 2x faster than cold: {cold_time} vs {reused_time}")
    assert zero_rtt_time <= udp_time * 1.5, (
        f"0-RTT not within 1.5x of UDP: {zero_rtt_time} vs {udp_time}")
    # Gate (b): the counters prove the paths actually ran — one connection
    # serving every reused query, one resumption per 0-RTT query.
    # Per-query DoT opens one stream per query and never hits the pool.
    assert timings["dot"]["connections_opened"] == QUERIES
    assert timings["dot"]["connections_reused"] == 0
    assert timings["dot_reused"]["connections_opened"] == 1
    assert timings["dot_reused"]["connections_reused"] == QUERIES - 1
    assert timings["dot_0rtt"]["zero_rtt_queries"] == QUERIES - 1
    # Gate (c): RRL starves the sustained racer as offered load grows.
    poison_rates = [row["races_poisoned"] / row["races_run"] for row in loads]
    assert all(earlier >= later for earlier, later
               in zip(poison_rates, poison_rates[1:])), poison_rates
    assert poison_rates[-1] < poison_rates[0], poison_rates
    # Gate (d): byte-identical across worker counts; pinned at full size.
    assert report["workers_identical"], "serving matrix diverged across workers"
    if seeds == (1, 2):
        assert sequential.digest() == SERVING_MATRIX_DIGEST, (
            f"serving matrix digest drifted: {sequential.digest()}")
    # Gate (e): the policy table — RRL alone (and RRL + opportunistic DoT)
    # stays downgradeable; only the strict pairing closes the row.
    assert downgrade["rrl"] == 1.0
    assert downgrade["rrl_plus_dot"] == 0.0
    assert downgrade["rrl_plus_dot_opp"] == 1.0
    sustained = sequential.success_table()["sustained_load"]
    assert sustained["rrl_plus_dot"] == 0.0
