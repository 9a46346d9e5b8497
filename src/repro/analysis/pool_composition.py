"""Experiment E1/E2: pool composition as a function of the poisoned query index.

Produces the data behind Figure 1 and the §IV claim that a poisoning landing
at or before the 12th of the 24 hourly queries leaves the attacker with at
least two-thirds of the Chronos pool.  Two modes:

* *analytic* — the closed-form arithmetic of the paper (fast, exact);
* *simulated* — the full packet-level scenario
  (:class:`repro.attacks.chronos_pool_attack.ChronosPoolAttackScenario`),
  which also accounts for de-duplication and the benign zone's rotation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from ..attacks.chronos_pool_attack import SECTION4_POLICY, analytic_pool_composition
from ..core.pool_generation import PoolComposition
from ..experiments.runner import run_scenario
from ..population.batch import FleetPolicy


@dataclass(frozen=True)
class PoolCompositionRow(PoolComposition):
    """One row of the E2 sweep."""

    poison_at_query: Optional[int]
    mode: str

    @staticmethod
    def header() -> str:
        return (f"{'poison@query':>13} {'benign':>7} {'malicious':>10} "
                f"{'fraction':>9} {'>=2/3':>6} {'mode':>10}")

    def formatted(self) -> str:
        label = "none" if self.poison_at_query is None else str(self.poison_at_query)
        return (f"{label:>13} {self.benign:>7} {self.malicious:>10} "
                f"{self.malicious_fraction:>9.3f} {str(self.attacker_has_two_thirds):>6} "
                f"{self.mode:>10}")


def analytic_sweep(policy: FleetPolicy = SECTION4_POLICY,
                   indices: Optional[Sequence[int]] = None) -> list[PoolCompositionRow]:
    """Closed-form sweep over every candidate poisoning index (plus no attack)."""
    if indices is None:
        indices = range(1, policy.query_count + 1)
    rows = []
    for index in (None, *indices):
        composition = analytic_pool_composition(index, policy)
        rows.append(PoolCompositionRow(composition.benign, composition.malicious,
                                       poison_at_query=index, mode="analytic"))
    return rows


def crossover_query_index(rows: Sequence[PoolCompositionRow]) -> Optional[int]:
    """Largest poisoning index in ``rows`` that still yields a 2/3 majority."""
    winning = [row.poison_at_query for row in rows
               if row.poison_at_query is not None and row.attacker_has_two_thirds]
    return max(winning) if winning else None


def crossover_composition() -> PoolCompositionRow:
    """The §IV sweep's row at its crossover: 44 benign versus 89 malicious."""
    rows = analytic_sweep()
    crossover = crossover_query_index(rows)
    return next(row for row in rows if row.poison_at_query == crossover)


def simulated_composition(poison_at_query: Optional[int], seed: int = 1,
                          dedupe: bool = True,
                          attacker_records: Optional[int] = None,
                          benign_server_count: int = 200) -> PoolCompositionRow:
    """Run the packet-level scenario for one poisoning index (via the registry)."""
    metrics = run_scenario("chronos_pool_attack", seed, {
        "poison_at_query": poison_at_query,
        "attacker_record_count": attacker_records,
        "benign_server_count": benign_server_count,
        "dedupe": dedupe,
        "run_time_shift": False,
    })
    return PoolCompositionRow(metrics["benign"], metrics["malicious"],
                              poison_at_query=poison_at_query, mode="simulated")


def figure1_report(poison_at_query: int = 1, seed: int = 1) -> dict:
    """The Figure-1 numbers: 4·11 = 44 benign versus 89 malicious.

    The figure depicts the poisoning landing early (the attacker keeps
    answering until query 12); the analytic composition at the crossover
    index reproduces the 44-vs-89 arithmetic, while the simulated scenario
    reproduces the same outcome on the wire.
    """
    at_crossover = crossover_composition()
    simulated = simulated_composition(poison_at_query, seed=seed, dedupe=False)
    return {
        "analytic_benign_at_query_12": at_crossover.benign,
        "analytic_malicious": at_crossover.malicious,
        "analytic_fraction": at_crossover.malicious_fraction,
        "simulated_benign": simulated.benign,
        "simulated_malicious": simulated.malicious,
        "simulated_fraction": simulated.malicious_fraction,
        "attack_succeeded": simulated.attacker_has_two_thirds,
    }
