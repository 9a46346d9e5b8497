"""Experiment E8: the §V mitigations and the residual attack they leave.

The paper suggests two changes to Chronos' pool generation:

* accept **at most 4 addresses** from any single DNS response, and
* **discard responses with high TTL values** (so a poisoned entry cannot
  silently absorb the remaining hourly queries from cache).

It then notes that even with both mitigations the dependency on DNS remains:
an attacker able to keep the victim's DNS hijacked for the whole 24-hour
window still controls every address in the pool.  This module evaluates all
of that in closed form and lines it up against the defense-matrix cells that
run the same cases at packet level — the only packet-level §V path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.pool_generation import PoolComposition
from ..dns.nameserver import POOL_RECORDS_PER_RESPONSE
from ..experiments.matrix import DEFAULT_ATTACKS, DEFAULT_STACKS, DefenseMatrixResult


@dataclass(frozen=True)
class MitigationRow:
    """One row of the mitigation-evaluation table."""

    scenario: str
    benign: int
    malicious: int
    malicious_fraction: float
    attacker_has_two_thirds: bool
    mode: str

    @staticmethod
    def header() -> str:
        return (f"{'scenario':<46} {'benign':>7} {'bad':>5} {'frac':>6} "
                f"{'>=2/3':>6} {'mode':>10}")

    def formatted(self) -> str:
        return (f"{self.scenario:<46} {self.benign:>7} {self.malicious:>5} "
                f"{self.malicious_fraction:>6.2f} {str(self.attacker_has_two_thirds):>6} "
                f"{self.mode:>10}")


def _row(scenario: str, composition: PoolComposition, mode: str) -> MitigationRow:
    return MitigationRow(
        scenario=scenario,
        benign=composition.benign,
        malicious=composition.malicious,
        malicious_fraction=composition.malicious_fraction,
        attacker_has_two_thirds=composition.attacker_has_two_thirds,
        mode=mode,
    )


def analytic_mitigation_table(query_count: int = 24, poison_at_query: int = 1,
                              attacker_records: int = 89,
                              benign_per_response: int = POOL_RECORDS_PER_RESPONSE,
                              ) -> list[MitigationRow]:
    """Closed-form evaluation of each mitigation against a single poisoning.

    * No mitigation: one poisoned response floods the pool (the §IV attack).
    * Max-4-addresses alone: the poisoned response contributes only 4
      addresses, but its huge TTL still starves the remaining queries from
      cache — the pool stays tiny and attacker-dominated, so the cap alone is
      *not* sufficient.
    * TTL filter: the poisoned response is rejected outright; later queries
      reach the benign servers again, so the attacker gains no pool members.
    * Both mitigations plus a 24-hour hijack: every response during the whole
      generation window is attacker-controlled, so the pool is 100 % malicious
      regardless of the caps — the residual risk §V concedes.
    """
    rows: list[MitigationRow] = []

    benign_before = (poison_at_query - 1) * benign_per_response

    unmitigated = PoolComposition(benign=benign_before, malicious=attacker_records)
    rows.append(_row("no mitigation, poisoning at query "
                     f"{poison_at_query}", unmitigated, "analytic"))

    # Record cap alone: the poisoned entry's >24 h TTL still absorbs every
    # later query, so no further benign servers are added.
    capped_malicious = min(attacker_records, benign_per_response)
    benign_after = (query_count - poison_at_query) * benign_per_response
    capped = PoolComposition(benign=benign_before, malicious=capped_malicious)
    rows.append(_row("max 4 addresses per response (alone)", capped, "analytic"))

    ttl_filtered = PoolComposition(benign=benign_before + benign_after, malicious=0)
    rows.append(_row("high-TTL responses discarded", ttl_filtered, "analytic"))

    # With both mitigations the TTL filter already rejects the poisoned
    # response, so the record cap adds nothing for a single poisoning.
    both = PoolComposition(benign=benign_before + benign_after, malicious=0)
    rows.append(_row("both mitigations (single poisoning)", both, "analytic"))

    full_hijack = PoolComposition(benign=0, malicious=query_count * benign_per_response)
    rows.append(_row("both mitigations, 24h DNS hijack (residual)", full_hijack, "analytic"))
    return rows


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
    analytic_two_thirds: bool
    analytic_fraction: float
    simulated_success_rate: float
    simulated_fraction: Optional[float]
    simulated_benign: Optional[float]
    simulated_malicious: Optional[float]

    @property
    def verdict_agrees(self) -> bool:
        """Whether simulation and closed form agree on the 2/3 outcome."""
        return self.analytic_two_thirds == (self.simulated_success_rate > 0.5)

    @property
    def fraction_agrees(self) -> bool:
        """Whether the malicious pool fractions coincide.

        They do for every §V row: where cache starvation makes the simulated
        *counts* smaller than the analytic credit (the TTL-filter rows leave
        the pool empty rather than refilled), the fraction still matches
        because both sides agree on who controls the pool.
        """
        if self.simulated_fraction is None:
            return False
        return abs(self.analytic_fraction - self.simulated_fraction) < 1e-9

    def formatted(self) -> str:
        fraction = (f"{self.simulated_fraction:.2f}"
                    if self.simulated_fraction is not None else "--")
        return (f"{self.label:<46} cell=({self.attack}, {self.stack}) "
                f"analytic>=2/3={str(self.analytic_two_thirds):<5} "
                f"simulated rate={self.simulated_success_rate:.2f} "
                f"frac={fraction} agree={self.verdict_agrees and self.fraction_agrees}")


def section5_from_matrix(matrix: DefenseMatrixResult) -> list[Section5CellComparison]:
    """Line the §V analytic table up against its defense-matrix cell slice.

    The matrix must contain the ``chronos_poisoning`` / ``chronos_24h_hijack``
    rows and the ``classic`` / ``address_cap`` / ``ttl_discard`` / ``section5``
    stacks (all present in the default grid).  The analytic side is evaluated
    under the same threat model the default matrix rows run (poisoning at
    query 1, the 89-record flood).  Every returned row agrees with the closed
    form on both the two-thirds verdict and the malicious pool fraction —
    including the residual ≈ 1.0 success of the sustained hijack.
    """
    analytic = {row.scenario: row
                for row in analytic_mitigation_table(poison_at_query=1,
                                                     attacker_records=89)}
    comparisons = []
    for label, (attack, stack) in SECTION5_MATRIX_CELLS:
        row = analytic[label]
        cell = matrix.cell(attack, stack)
        comparisons.append(Section5CellComparison(
            label=label,
            attack=attack,
            stack=stack,
            analytic_two_thirds=row.attacker_has_two_thirds,
            analytic_fraction=row.malicious_fraction,
            simulated_success_rate=cell.success_rate,
            simulated_fraction=cell.mean("attacker_fraction"),
            simulated_benign=cell.mean("benign"),
            simulated_malicious=cell.mean("malicious"),
        ))
    return comparisons
