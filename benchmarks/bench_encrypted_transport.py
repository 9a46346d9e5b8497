"""E-transport: encrypted-transport overhead and determinism gates.

Three measurements on the new connection-oriented path:

1. **Handshake overhead** — resolve the pool zone N times over plaintext
   UDP, plain DNS-over-TCP, DoT and DoH in otherwise identical worlds (every
   world of ``TRANSPORT_PROFILES``, so pooled and 0-RTT DoT too), and
   compare both the simulated time-to-answer of a single query (the
   protocol's round trips made visible: UDP 1 RTT, TCP +1 handshake RTT,
   DoT/DoH +1 more for the TLS hello exchange) and the wall-clock cost per
   simulated query.
2. **Determinism** — a multi-seed ``downgrade`` sweep (the scenario
   exercising SYN floods, connect timeouts, fallback *and* the frag race)
   must be byte-identical between ``workers=1`` and ``workers=4``, and its
   digest at the default seeds is pinned.
3. **Policy table** — the one-line summary the subsystem exists for:
   strict DoT blocks the downgrade, opportunistic DoT does not.

A JSON artifact (``BENCH_encrypted_transport.json``) records the numbers
for CI archiving.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import emit

from repro.experiments import ExperimentSpec, SweepScheduler, run_scenario
from repro.experiments.pins import DOWNGRADE_SWEEP_DIGEST
from repro.experiments.scenarios import TRANSPORT_PROFILES

SEED_COUNT = 8
QUERIES = 50


def resolve_many(label, queries):
    """Resolve ``queries`` cache-missing lookups through the
    ``transport_overhead`` scenario; returns timing figures."""
    started = time.perf_counter()
    metrics = run_scenario("transport_overhead", 42,
                           {"transport": label, "queries": queries})
    wall = time.perf_counter() - started
    assert metrics["unanswered"] == 0, f"{label}: {metrics['unanswered']} unanswered"
    return {
        "simulated_time_to_answer": metrics["mean_time_to_answer"],
        "wall_seconds_per_query": wall / queries,
    }


def test_encrypted_transport_gates(benchmark):
    def workload():
        timings = {label: resolve_many(label, QUERIES)
                   for label in TRANSPORT_PROFILES}
        spec = ExperimentSpec(
            "downgrade", seeds=tuple(range(1, SEED_COUNT + 1)),
            param_sets=({"defenses": ()},
                        {"defenses": ("encrypted_transport",)},
                        {"defenses": ("encrypted_transport_opportunistic",)}))
        sequential, parallel = (
            SweepScheduler(workers=workers).run_specs([spec])[0][0]
            for workers in (1, 4))
        return timings, sequential, parallel

    timings, sequential, parallel = benchmark.pedantic(workload, rounds=1,
                                                       iterations=1)
    per_stack = SEED_COUNT
    rates = {
        "plain": sequential.records[:per_stack],
        "dot_strict": sequential.records[per_stack:2 * per_stack],
        "dot_opportunistic": sequential.records[2 * per_stack:],
    }
    success = {name: sum(r.metrics["attack_succeeded"] for r in records) / per_stack
               for name, records in rates.items()}

    udp_rtt = timings["udp"]["simulated_time_to_answer"]
    report = {
        "seed_count": SEED_COUNT,
        "queries_per_transport": QUERIES,
        "simulated_time_to_answer": {
            label: round(figures["simulated_time_to_answer"], 4)
            for label, figures in timings.items()},
        "handshake_overhead_rtts": {
            label: round((figures["simulated_time_to_answer"] - udp_rtt) / udp_rtt, 2)
            for label, figures in timings.items()},
        "wall_seconds_per_query": {
            label: round(figures["wall_seconds_per_query"], 6)
            for label, figures in timings.items()},
        "downgrade_success": success,
        "digest": sequential.digest(),
        "digest_pinned": DOWNGRADE_SWEEP_DIGEST if SEED_COUNT == 8 else None,
        "workers_identical": sequential.digest() == parallel.digest(),
    }
    json_path = "BENCH_encrypted_transport.json"
    with Path(json_path).open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    emit("E-transport — encrypted DNS transports: handshake overhead, "
         "downgrade sweep determinism", [
             "time-to-answer (simulated): " + ", ".join(
                 f"{label}={figures['simulated_time_to_answer'] * 1000:.0f}ms"
                 for label, figures in timings.items()),
             "wall clock per query: " + ", ".join(
                 f"{label}={figures['wall_seconds_per_query'] * 1000:.2f}ms"
                 for label, figures in timings.items()),
             f"downgrade success rates: {success}",
             f"digest identical across workers: {report['workers_identical']}",
             f"report: {json_path}",
         ])

    # Gate (a): the protocol round trips are visible and ordered — each
    # transport pays at least one more RTT than its predecessor.
    assert udp_rtt > 0
    assert timings["tcp"]["simulated_time_to_answer"] >= udp_rtt * 2.5
    assert (timings["dot"]["simulated_time_to_answer"]
            > timings["tcp"]["simulated_time_to_answer"] * 0.99)
    assert (timings["doh"]["simulated_time_to_answer"]
            >= timings["dot"]["simulated_time_to_answer"] * 0.99)
    # Gate (b): byte-identical across worker counts; pinned at full size.
    assert report["workers_identical"], "downgrade sweep diverged across workers"
    if SEED_COUNT == 8:
        assert sequential.digest() == DOWNGRADE_SWEEP_DIGEST, (
            f"downgrade sweep digest drifted: {sequential.digest()}")
    # Gate (c): the policy table the subsystem exists to demonstrate.
    assert success["plain"] == 1.0
    assert success["dot_strict"] == 0.0
    assert success["dot_opportunistic"] == 1.0
