#!/usr/bin/env python3
"""Reproduce the §II DNS measurement statistics (experiment E4).

The paper's attack rests on a companion measurement of how fragile the DNS
ecosystem around pool.ntp.org is: how many nameservers fragment responses
(and skip DNSSEC), how many resolvers accept fragments, and how many can be
made to issue queries by a third party.  The populations here are synthetic
(an Internet measurement cannot be re-run offline), but the probe/classify/
aggregate pipeline is the same one a live measurement would run.

The study is registered as the ``dns_measurement`` scenario, so this example
drives it through the experiment engine: a multi-seed (optionally parallel)
sweep whose aggregates carry confidence intervals for every fraction.

Run with:  python examples/dns_measurement_study.py [seeds] [workers]
"""

from __future__ import annotations

import sys

from repro.analysis import VectorFeasibilityRow, mtu_sweep
from repro.experiments import ExperimentSpec, SweepScheduler


def main(seed_count: int = 8, workers: int = 1) -> None:
    (result,), _ = SweepScheduler(workers=workers).run_specs([ExperimentSpec(
        "dns_measurement", seeds=tuple(range(seed_count)))])

    print(f"== §II measurement study: {len(result)} synthetic populations "
          f"({result.elapsed_seconds:.2f}s, workers={workers}) ==")
    first = result.records[0].metrics
    print(f"  nameservers usable for fragmentation poisoning: "
          f"{first['nameservers_fragmenting_without_dnssec']} of 30 (every seed: "
          f"{sorted(set(result.values('nameservers_fragmenting_without_dnssec')))})")
    for key in ("accept_any_fraction", "accept_minimum_fraction",
                "triggerable_fraction", "vulnerable_pair_fraction"):
        interval = result.mean_interval(key)
        print(f"  {key}: mean {result.mean(key):.3f} {interval.formatted()}")
    print(f"  digest: {result.digest()}")

    print("\n== fragmentation-vector feasibility vs nameserver MTU (E7) ==")
    print("  " + VectorFeasibilityRow.header())
    for row in mtu_sweep():
        print("  " + row.formatted())


if __name__ == "__main__":
    argv = sys.argv[1:]
    try:
        seed_count = int(argv[0]) if argv else 8
        worker_count = int(argv[1]) if len(argv) > 1 else 1
    except ValueError:
        sys.exit("usage: dns_measurement_study.py [seeds] [workers]")
    main(seed_count=seed_count, workers=worker_count)
