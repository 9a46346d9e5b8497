#!/usr/bin/env python3
"""Encrypted DNS transports: what strict DoT closes, and what fallback reopens.

Three acts on the new connection-oriented netsim layer:

1. **A DoT query, watched from the wire.**  A resolver resolves the pool
   zone over DNS-over-TLS while an on-path tap records every packet: the
   TCP handshake and TLS hello exchange are visible, the question and the
   answer are not — taps see only ciphertext.
2. **Strict DoT against every off-path vector.**  Each attack row of the
   matrix runs against the ``dot_strict`` stack: blind spoofing, the
   fragment splice, the BGP hijack and even the sustained 24-hour hijack
   all land at 0.0 — the hijacker can complete a TCP handshake for the
   diverted address, but holds no certificate key, so resolution fails
   *closed* instead of poisoned.
3. **Opportunistic DoT and the downgrade race.**  The same attacker floods
   the nameserver's stream listeners with spoofed-source SYNs, the
   opportunistic resolver's connect attempt dies at a full backlog, the
   query falls back to plaintext UDP — and the classic fragmentation race
   wins again.  Policy, not cryptography, decides whether the protection
   is real.
4. **What the handshake tax costs — and the serving layer that removes
   it.**  The same 20 queries over cold-per-query DoT, a reused RFC 7766
   stream, and 0-RTT session resumption: reuse collapses 3 round trips to
   1, putting encrypted transport at plaintext-UDP latency parity warm.

Run with:  python examples/encrypted_transport.py [seeds]
"""

from __future__ import annotations

import sys

from repro.dns.records import RecordType
from repro.dns.wire import encode_name
from repro.experiments import (
    ExperimentSpec,
    SweepScheduler,
    TestbedConfig,
    build_testbed,
)
from repro.experiments.runner import resolve_spec_tasks
from repro.experiments.scenarios import time_lookups

ZONE = "pool.ntp.org"

ATTACKS = (
    ("frag_poisoning", {}),
    ("bgp_hijack", {}),
    ("traditional_client_attack", {}),
    ("chronos_pool_attack", {"poison_at_query": 1, "run_time_shift": False,
                             "benign_server_count": 120}),
    ("downgrade", {}),
)

STACKS = (
    ("plaintext UDP", ()),
    ("dot_strict", ("encrypted_transport",)),
    ("dot_opportunistic", ("encrypted_transport_opportunistic",)),
)


def act_one() -> None:
    print("== 1. a DoT query, watched from the wire ==")
    testbed = build_testbed(TestbedConfig(
        seed=1, benign_server_count=50, records_per_response=30,
        defenses=("encrypted_transport",), with_attacker=False))
    wire = bytearray()
    packets = []
    testbed.network.add_tap(lambda packet, now: (wire.extend(packet.payload),
                                                 packets.append(packet)))
    testbed.resolver.trigger_lookup(ZONE)
    testbed.simulator.run(until=5.0)
    entry = testbed.resolver.cache.peek(ZONE, RecordType.A)
    print(f"resolved over DoT: {len(entry.records)} records cached")
    print(f"packets on the wire: {len(packets)} "
          f"(handshake + TLS hellos + framed query/answer)")
    leaked = encode_name(ZONE) in bytes(wire)
    print(f"question name visible to the on-path tap: {leaked}")
    assert not leaked


def _progress(done: int, total: int) -> None:
    print(f"\r  sweep: {done}/{total} tasks", end="" if done < total else "\n",
          file=sys.stderr, flush=True)


def act_two_and_three(seed_count: int) -> None:
    print("\n== 2+3. every off-path vector × transport policy ==")
    seeds = tuple(range(1, seed_count + 1))
    # One flat task stream for the whole grid on a single shared scheduler
    # (rather than one ExperimentRunner per cell) so progress is reported
    # over the entire sweep and nothing idles at per-cell barriers.
    tasks = [task
             for attack, params in ATTACKS
             for _, defenses in STACKS
             for task in resolve_spec_tasks(ExperimentSpec(
                 scenario=attack, seeds=seeds,
                 base_params={**params, "defenses": defenses}))]
    scheduler = SweepScheduler(on_progress=_progress)
    records, stats = scheduler.run_tasks(tasks)
    print(f"  {stats.formatted()}", file=sys.stderr)

    width = max(len(name) for name, _ in ATTACKS)
    header = " " * width + "".join(f" {label:>20}" for label, _ in STACKS)
    print(header)
    cursor = 0
    for attack, _ in ATTACKS:
        row = f"{attack:<{width}}"
        for _ in STACKS:
            cell = records[cursor:cursor + len(seeds)]
            cursor += len(seeds)
            rate = sum(1 for r in cell if r.metrics["attack_succeeded"]) / len(cell)
            row += f" {rate:>20.2f}"
        print(row)
    print("\nstrict DoT clears every row (the 24h-hijack residual included);")
    print("opportunistic DoT falls to every attack that can force a downgrade.")


def act_four(queries: int = 20) -> None:
    print("\n== 4. the handshake tax: cold vs reused vs 0-RTT ==")
    print(f"{'transport':<12} {'mean answer':>12} {'conns':>6} "
          f"{'reused':>7} {'0-rtt':>6}")
    for label in ("udp", "dot", "dot_reused", "dot_0rtt"):
        testbed, times = time_lookups(label, 42, queries)
        upstream = testbed.resolver.upstream_transport
        print(f"{label:<12} {sum(times) / len(times) * 1000:>10.1f}ms "
              f"{getattr(upstream, 'connections_opened', 0):>6} "
              f"{getattr(upstream, 'connections_reused', 0):>7} "
              f"{getattr(upstream, 'zero_rtt_queries', 0):>6}")
    print("\na warm reused stream answers in 1 RTT — encrypted transport at")
    print("plaintext parity; 0-RTT buys the same without keeping streams open.")


def main(seed_count: int = 2) -> None:
    act_one()
    act_two_and_three(seed_count)
    act_four()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
