"""E1 (Figure 1): the full DNS-poisoning attack on the Chronos pool.

Regenerates the figure's arithmetic — 4·11 = 44 benign vs 89 malicious
addresses, a two-thirds attacker majority — both from the closed form and
from the packet-level simulation (driven through the sweep scheduler), and
reports the end-to-end time shift the attacker subsequently achieves.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.pool_composition import figure1_report
from repro.attacks import analytic_pool_composition
from repro.experiments import ExperimentResult, ExperimentSpec, SweepScheduler


def run_figure1(poison_at_query: int = 3, seed: int = 7) -> ExperimentResult:
    (result,), _ = SweepScheduler().run_specs([ExperimentSpec(
        "chronos_pool_attack",
        seeds=(seed,),
        base_params={"poison_at_query": poison_at_query,
                     "target_shift": 600.0,
                     "update_rounds": 5},
    )])
    return result


def test_figure1_pool_attack(benchmark):
    result = benchmark.pedantic(run_figure1, rounds=3, iterations=1)
    metrics = result.records[0].metrics
    analytic = analytic_pool_composition(12)
    report = figure1_report(poison_at_query=3, seed=7)
    emit("E1 / Figure 1 — DNS poisoning attack on the Chronos pool", [
        f"paper arithmetic at crossover (query 12): "
        f"{analytic.benign} benign vs {analytic.malicious} malicious "
        f"(attacker fraction {analytic.malicious_fraction:.3f})",
        f"simulated pool (poisoning at query 3):    "
        f"{metrics['benign']} benign vs {metrics['malicious']} malicious "
        f"(attacker fraction {metrics['attacker_fraction']:.3f})",
        f"attacker >= 2/3 of pool:                  {metrics['attack_succeeded']}",
        f"poisoned queries observed:                {metrics['poisoned_queries'][:3]}...",
        f"generation queries answered from cache:   {metrics['cache_hits']} of 24",
        f"time shift achieved on victim clock:      {metrics['achieved_shift']:.1f} s "
        f"(target 600 s, panic rounds {metrics['panic_rounds']})",
        f"cross-check via figure1_report():         "
        f"simulated fraction {report['simulated_fraction']:.3f}",
    ])
    assert metrics["attack_succeeded"]
    assert metrics["shift_achieved"]
