"""E9: the shift actually achieved on the victim clock, across victims and targets.

Each victim row is an :class:`ExperimentSpec` over the target-shift grid, and
all rows run as one :meth:`SweepScheduler.run_specs` stream; the victims
themselves are addressed through the scenario registry.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments import ExperimentSpec, SweepScheduler

TARGETS = (0.1, 600.0)  # the paper's 100 ms reference and a ten-minute shift

#: (row label, scenario name, base params, success metric)
VICTIMS = (
    ("traditional NTP, poisoned lookup", "traditional_client_attack",
     {"poll_rounds": 4}, "attack_succeeded"),
    ("Chronos, no DNS attack", "chronos_pool_attack",
     {"poison_at_query": None, "update_rounds": 5}, "shift_achieved"),
    ("Chronos, pool attack at query 2", "chronos_pool_attack",
     {"poison_at_query": 2, "update_rounds": 6}, "shift_achieved"),
)


def run_matrix():
    results, _ = SweepScheduler().run_specs([
        ExperimentSpec(scenario, seeds=(19,), base_params=base_params,
                       grid={"target_shift": TARGETS})
        for _, scenario, base_params, _ in VICTIMS])
    rows = []
    for (label, _, _, success_key), result in zip(VICTIMS, results):
        rows.extend((label, record.params["target_shift"],
                     record.metrics["achieved_shift"],
                     record.metrics[success_key])
                    for record in result.records)
    return rows


def test_time_shift_end_to_end(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    lines = [f"{'victim':<36} {'target (s)':>11} {'achieved (s)':>13} {'shifted?':>9}"]
    lines.extend(f"{victim:<36} {target:>11.3f} {achieved:>13.3f} {str(succeeded):>9}"
                 for victim, target, achieved, succeeded in rows)
    lines.append("(expected shape: both poisoned victims follow the attacker; "
                 "un-attacked Chronos does not)")
    emit("E9 — end-to-end time shift on the victim clock", lines)

    outcomes = {(victim, target): succeeded for victim, target, _, succeeded in rows}
    assert outcomes[("traditional NTP, poisoned lookup", 600.0)]
    assert outcomes[("Chronos, pool attack at query 2", 600.0)]
    assert not outcomes[("Chronos, no DNS attack", 600.0)]
