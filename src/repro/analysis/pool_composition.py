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

from ..attacks.chronos_pool_attack import analytic_pool_composition
from ..core.pool_generation import PoolComposition
from ..experiments.runner import run_scenario


@dataclass(frozen=True)
class PoolCompositionRow:
    """One row of the E2 sweep."""

    poison_at_query: Optional[int]
    benign: int
    malicious: int
    malicious_fraction: float
    attacker_has_two_thirds: bool
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


def _row_from_composition(poison_at_query: Optional[int], composition: PoolComposition,
                          mode: str) -> PoolCompositionRow:
    return PoolCompositionRow(
        poison_at_query=poison_at_query,
        benign=composition.benign,
        malicious=composition.malicious,
        malicious_fraction=composition.malicious_fraction,
        attacker_has_two_thirds=composition.attacker_has_two_thirds,
        mode=mode,
    )


def analytic_sweep(query_count: int = 24, benign_per_response: int = 4,
                   attacker_records: int = 89,
                   indices: Optional[Sequence[int]] = None) -> list[PoolCompositionRow]:
    """Closed-form sweep over every candidate poisoning index (plus no attack)."""
    if indices is None:
        indices = range(1, query_count + 1)
    rows = [_row_from_composition(None,
                                  analytic_pool_composition(None, query_count,
                                                            benign_per_response,
                                                            attacker_records),
                                  mode="analytic")]
    for index in indices:
        composition = analytic_pool_composition(index, query_count, benign_per_response,
                                                attacker_records)
        rows.append(_row_from_composition(index, composition, mode="analytic"))
    return rows


def crossover_query_index(rows: Sequence[PoolCompositionRow]) -> Optional[int]:
    """Largest poisoning index in ``rows`` that still yields a 2/3 majority."""
    winning = [row.poison_at_query for row in rows
               if row.poison_at_query is not None and row.attacker_has_two_thirds]
    return max(winning) if winning else None


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
    composition = PoolComposition(benign=metrics["benign"],
                                  malicious=metrics["malicious"])
    return _row_from_composition(poison_at_query, composition, mode="simulated")


def figure1_report(poison_at_query: int = 1, seed: int = 1) -> dict:
    """The Figure-1 numbers: 4·11 = 44 benign versus 89 malicious.

    The figure depicts the poisoning landing early (the attacker keeps
    answering until query 12); the analytic composition at the crossover
    index reproduces the 44-vs-89 arithmetic, while the simulated scenario
    reproduces the same outcome on the wire.
    """
    analytic_at_12 = analytic_pool_composition(12)
    simulated = simulated_composition(poison_at_query, seed=seed, dedupe=False)
    return {
        "analytic_benign_at_query_12": analytic_at_12.benign,
        "analytic_malicious": analytic_at_12.malicious,
        "analytic_fraction": analytic_at_12.malicious_fraction,
        "simulated_benign": simulated.benign,
        "simulated_malicious": simulated.malicious,
        "simulated_fraction": simulated.malicious_fraction,
        "attack_succeeded": simulated.attacker_has_two_thirds,
    }
