#!/usr/bin/env python3
"""Quickstart: run Chronos in a benign simulated Internet via the scheduler.

Every experiment in this repo goes through the same engine: pick a scenario
from the registry, describe the sweep as an
:class:`repro.experiments.ExperimentSpec` (seeds and a parameter dict), run
it with :meth:`repro.experiments.SweepScheduler.run_specs`, and read the
aggregate.  Here the attacker is disabled (``poison_at_query=None``), so
the sweep simply shows a healthy Chronos client across several randomized
worlds.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments import ExperimentSpec, SweepScheduler, available_scenarios


def main() -> None:
    print("== registered scenarios ==")
    for name, description in available_scenarios().items():
        print(f"  {name:<28} {description}")

    print("\n== benign Chronos, 4-seed sweep (no attacker) ==")
    (result,), _ = SweepScheduler().run_specs([ExperimentSpec(
        "chronos_pool_attack",
        seeds=(42, 43, 44, 45),
        base_params={"poison_at_query": None, "target_shift": 0.0,
                     "update_rounds": 6},
    )])
    for record in result.records:
        print(f"  seed {record.seed}: pool size {record.metrics['pool_size']}, "
              f"{record.metrics['benign']} benign / "
              f"{record.metrics['malicious']} malicious, "
              f"clock error {record.metrics['achieved_shift'] * 1000.0:.3f} ms")

    print("\n== aggregate ==")
    for line in result.summary_lines():
        print(f"  {line}")
    print(f"  runs with any malicious pool member: "
          f"{sum(1 for record in result.records if record.metrics['malicious'])}")


if __name__ == "__main__":
    main()
