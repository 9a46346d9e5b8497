#!/usr/bin/env python3
"""Compare the DNS attack surface of plain NTP and Chronos (experiments E6/E9).

The paper's headline: Chronos was designed to make time shifting dramatically
harder than plain NTP, yet its DNS-based pool generation gives an off-path
attacker *more* poisoning opportunities and a *stronger* outcome per success.

Both victims are addressed through the scenario registry and swept over the
same seeds by the experiment runner:

* ``traditional_client_attack`` — a 4-server NTP client whose single
  start-up DNS lookup is poisoned;
* ``chronos_pool_attack`` — a Chronos client whose pool generation is
  poisoned at query #3;

followed by the analytical effort comparison (per-race opportunities and the
expected years to shift the clock by 100 ms, before and after the attack).

Run with:  python examples/plain_ntp_vs_chronos.py
"""

from __future__ import annotations

from repro.analysis import (
    DNSAttackComparisonRow,
    ShiftEffortRow,
    dns_attack_comparison,
    shift_effort_table,
)
from repro.experiments import ExperimentSpec, SweepScheduler

SEEDS = (11, 12, 13)
TARGET_SHIFT = 600.0  # seconds


def run_victim(title: str, scenario: str, base_params: dict,
               success_key: str) -> None:
    # success_key differs per victim: the baseline's attack_succeeded is
    # already shift-based, while for Chronos the end-to-end outcome this
    # comparison is about is the time-shifting phase, not the pool majority.
    print(f"== {title} ==")
    (result,), _ = SweepScheduler().run_specs([ExperimentSpec(
        scenario, seeds=SEEDS, base_params=base_params)])
    rate = result.success_rate(success_key)
    interval = result.success_interval(success_key)
    print(f"  seeds swept:                  {len(SEEDS)}")
    print(f"  shift success rate:           {rate:.2f} {interval.formatted()}")
    print(f"  victim clock error (mean):    {result.mean('achieved_shift'):.1f} s "
          f"(target {TARGET_SHIFT:.0f} s)\n")


def print_tables() -> None:
    print("== DNS attack-surface comparison (E6) ==")
    print(DNSAttackComparisonRow.header())
    for row in dns_attack_comparison():
        print(row.formatted())

    print("\n== Expected effort to shift the clock by 100 ms (E3) ==")
    print(ShiftEffortRow.header())
    for row in shift_effort_table():
        print(row.formatted())


def main() -> None:
    run_victim("Traditional NTP client, poisoned start-up lookup",
               "traditional_client_attack",
               {"target_shift": TARGET_SHIFT},
               success_key="attack_succeeded")
    run_victim("Chronos client, pool generation poisoned at query #3",
               "chronos_pool_attack",
               {"poison_at_query": 3, "target_shift": TARGET_SHIFT,
                "update_rounds": 6},
               success_key="shift_achieved")
    print_tables()


if __name__ == "__main__":
    main()
