#!/usr/bin/env python3
"""The paper's Figure-1 attack, end to end, as a multi-seed sweep.

1. The attacker stands up 89 NTP servers (the maximum that fits in a single
   unfragmented DNS response) and waits for the Chronos client to start its
   pool generation.
2. During the k-th hourly pool.ntp.org query it poisons the victim
   resolver's cache (here via a short BGP hijack window) with all 89
   addresses under a 48-hour TTL.
3. Every later hourly query is answered from cache, so the finished pool is
   at most 4·(k-1) benign addresses against 89 malicious ones — a two-thirds
   attacker majority for any k ≤ 12.
4. The attacker's servers then serve time shifted by 10 minutes, and the
   Chronos client follows.

The paper reports these outcomes as probabilities over randomized runs, so
this example sweeps the scenario over several seeds through the experiment
runner and prints the success rate with a Wilson confidence interval.

Run with:  python examples/pool_poisoning_attack.py [poison_query_index] [workers]
"""

from __future__ import annotations

import sys

from repro.attacks import analytic_pool_composition
from repro.experiments import ExperimentSpec, SweepScheduler

SEEDS = tuple(range(1, 11))
TARGET_SHIFT = 600.0  # ten minutes


def main(poison_at_query: int = 3, workers: int = 1) -> None:
    print(f"== DNS poisoning lands at pool-generation query #{poison_at_query} ==\n")

    analytic = analytic_pool_composition(poison_at_query)
    print("closed-form expectation (paper arithmetic):")
    print(f"  benign addresses:    {analytic.benign}")
    print(f"  malicious addresses: {analytic.malicious}")
    print(f"  attacker fraction:   {analytic.malicious_fraction:.3f}")
    print(f"  attacker >= 2/3:     {analytic.attacker_has_two_thirds}\n")

    (result,), _ = SweepScheduler(workers=workers).run_specs([ExperimentSpec(
        "chronos_pool_attack",
        seeds=SEEDS,
        base_params={"poison_at_query": poison_at_query,
                     "target_shift": TARGET_SHIFT,
                     "update_rounds": 6},
    )])

    print(f"packet-level sweep over {len(SEEDS)} seeds "
          f"(workers={workers}, {result.elapsed_seconds:.2f}s):")
    pool_rate = result.success_rate("attack_succeeded")
    pool_ci = result.success_interval("attack_succeeded")
    shift_rate = result.success_rate("shift_achieved")
    print(f"  2/3-majority success rate: {pool_rate:.2f} {pool_ci.formatted()}")
    print(f"  time-shift success rate:   {shift_rate:.2f}")
    print(f"  attacker fraction:         mean {result.mean('attacker_fraction'):.3f} "
          f"median {result.median('attacker_fraction'):.3f}")
    print(f"  achieved shift (s):        mean {result.mean('achieved_shift'):.1f} "
          f"{result.mean_interval('achieved_shift').formatted()} "
          f"(target {TARGET_SHIFT:.0f})")
    print(f"  sweep digest:              {result.digest()[:16]}… "
          f"(byte-identical across worker counts)")


if __name__ == "__main__":
    index = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    worker_count = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    main(index, worker_count)
