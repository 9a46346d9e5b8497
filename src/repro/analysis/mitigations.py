"""Experiment E8: the §V mitigations and the residual attack they leave.

The paper suggests two changes to Chronos' pool generation:

* accept **at most 4 addresses** from any single DNS response, and
* **discard responses with high TTL values** (a poisoned entry outlives
  the remaining hourly queries; no such response should enter the pool).

It then notes that even with both mitigations the dependency on DNS remains:
an attacker able to keep the victim's DNS hijacked for the whole 24-hour
window still controls every address in the pool.  This module evaluates all
of that in closed form and lines it up against the defense-matrix cells that
run the same cases at packet level — the only packet-level §V path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from ..core.pool_generation import PoolComposition
from ..experiments.matrix import (
    DEFAULT_ATTACKS,
    DEFAULT_STACKS,
    AttackSpec,
    DefenseMatrixResult,
    DefenseStackSpec,
)
from ..experiments.registry import get_scenario
from ..population.batch import FleetPolicy, compose_client


@dataclass(frozen=True)
class MitigationRow(PoolComposition):
    """One row of the mitigation-evaluation table."""

    scenario: str
    mode: str

    @staticmethod
    def header() -> str:
        return (f"{'scenario':<46} {'benign':>7} {'bad':>5} {'frac':>6} "
                f"{'>=2/3':>6} {'mode':>10}")

    def formatted(self) -> str:
        return (f"{self.scenario:<46} {self.benign:>7} {self.malicious:>5} "
                f"{self.malicious_fraction:>6.2f} {str(self.attacker_has_two_thirds):>6} "
                f"{self.mode:>10}")


def _cell_composition(attack: AttackSpec, stack: DefenseStackSpec) -> PoolComposition:
    """The closed-form pool of one §V cell, from the cell's own inputs."""
    p = {**get_scenario(attack.scenario).default_params(), **attack.params}
    records = p["attacker_record_count"]
    policy = FleetPolicy(
        benign_servers=p["benign_server_count"],
        attacker_records=FleetPolicy.attacker_records if records is None else records,
        malicious_ttl=p["malicious_ttl"],
        dedupe=p["dedupe"],
        defenses=stack.defenses,
    )
    if p["hijack_duration"] >= policy.query_count * policy.query_interval:
        # The hijack spans the whole generation window: every response is
        # the attacker's, and the pool holds what the defenses let through.
        return PoolComposition(0, policy.accepted(policy.attacker_records,
                                                  policy.malicious_ttl))
    return compose_client(policy, p["poison_at_query"])


@functools.cache
def analytic_mitigation_table() -> tuple[MitigationRow, ...]:
    """Closed-form evaluation of every §V cell (:data:`SECTION5_MATRIX_CELLS`).

    * No mitigation: one poisoned response floods the pool (the §IV attack).
    * Max-4-addresses alone: the poisoned response contributes only 4
      addresses, but its huge TTL still starves the remaining queries from
      cache — the pool stays tiny and attacker-dominated, so the cap alone is
      *not* sufficient.
    * TTL filter: the poisoned response is discarded, but its entry stays in
      the resolver cache and answers every later query, which is discarded
      too — the attacker gains no pool members, and the client gets no pool
      at all (a denial of service, not a refilled pool).
    * Both mitigations plus a 24-hour hijack: every response during the whole
      generation window is attacker-controlled, so the pool is 100 % malicious
      regardless of the caps — the residual risk §V concedes.
    """
    attacks = {attack.label: attack for attack in SECTION5_ATTACKS}
    stacks = {stack.name: stack for stack in SECTION5_STACKS}
    rows = []
    for label, (attack, stack) in SECTION5_MATRIX_CELLS:
        composition = _cell_composition(attacks[attack], stacks[stack])
        rows.append(MitigationRow(composition.benign, composition.malicious,
                                  scenario=label, mode="analytic"))
    return tuple(rows)


#: Analytic-table row label -> the defense-matrix cell reproducing it.
SECTION5_MATRIX_CELLS = (
    ("no mitigation, poisoning at query 1", ("chronos_poisoning", "classic")),
    ("max 4 addresses per response (alone)", ("chronos_poisoning", "address_cap")),
    ("high-TTL responses discarded", ("chronos_poisoning", "ttl_discard")),
    ("both mitigations (single poisoning)", ("chronos_poisoning", "section5")),
    ("both mitigations, 24h DNS hijack (residual)", ("chronos_24h_hijack", "section5")),
)

#: The default-grid rows and columns those cells name, in grid order.
SECTION5_ATTACKS = tuple(attack for attack in DEFAULT_ATTACKS
                         if any(attack.label == cell[0] for _, cell in SECTION5_MATRIX_CELLS))
SECTION5_STACKS = tuple(stack for stack in DEFAULT_STACKS
                        if any(stack.name == cell[1] for _, cell in SECTION5_MATRIX_CELLS))


@dataclass(frozen=True)
class Section5CellComparison:
    """One analytic §V row next to the defense-matrix cell reproducing it."""

    label: str
    attack: str
    stack: str
    analytic: PoolComposition
    simulated_success_rate: float
    simulated_fraction: Optional[float]
    simulated_benign: Optional[float]
    simulated_malicious: Optional[float]

    @property
    def verdict_agrees(self) -> bool:
        """Whether simulation and closed form agree on the 2/3 outcome."""
        return self.analytic.attacker_has_two_thirds == (self.simulated_success_rate > 0.5)

    @property
    def counts_agree(self) -> bool:
        """Whether the cell's mean benign/malicious counts are the closed form's."""
        return (self.simulated_benign == self.analytic.benign
                and self.simulated_malicious == self.analytic.malicious)

    def formatted(self) -> str:
        fraction = (f"{self.simulated_fraction:.2f}"
                    if self.simulated_fraction is not None else "--")
        return (f"{self.label:<46} cell=({self.attack}, {self.stack}) "
                f"analytic>=2/3={str(self.analytic.attacker_has_two_thirds):<5} "
                f"simulated rate={self.simulated_success_rate:.2f} "
                f"frac={fraction} agree={self.verdict_agrees and self.counts_agree}")


def section5_from_matrix(matrix: DefenseMatrixResult) -> list[Section5CellComparison]:
    """Line the §V analytic table up against its defense-matrix cell slice.

    The matrix must contain the ``chronos_poisoning`` / ``chronos_24h_hijack``
    rows and the ``classic`` / ``address_cap`` / ``ttl_discard`` / ``section5``
    stacks (all present in the default grid).  Every returned row agrees with
    the closed form on the two-thirds verdict and on the benign and malicious
    counts — including the residual ≈ 1.0 success of the sustained hijack.
    """
    comparisons = []
    for row, (label, (attack, stack)) in zip(analytic_mitigation_table(),
                                             SECTION5_MATRIX_CELLS):
        cell = matrix.cell(attack, stack)
        comparisons.append(Section5CellComparison(
            label=label,
            attack=attack,
            stack=stack,
            analytic=row,
            simulated_success_rate=cell.success_rate,
            simulated_fraction=cell.mean("attacker_fraction"),
            simulated_benign=cell.mean("benign"),
            simulated_malicious=cell.mean("malicious"),
        ))
    return comparisons
