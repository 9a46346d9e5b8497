"""Experiments E3 and E6: attacker effort, before and after the DNS attack.

E3 reproduces the Chronos security claim quoted in §III — a strong MitM
attacker (just under a third of the pool) needs years-to-decades of effort to
shift a Chronos clock by 100 ms — and shows the same bound collapsing to a
single update round once the attacker owns two-thirds of the pool.

E6 reproduces the paper's headline comparison: measured in "number of DNS
poisonings the attacker must win" and "opportunities it gets to win one",
Chronos with its 24-query pool generation is *easier* to attack via DNS than
a traditional NTP client with its single lookup.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from ..attacks.chronos_pool_attack import SECTION4_POLICY
from ..core.security_analysis import (
    CumulativeShiftBound,
    ShiftAttackBound,
    cumulative_shift_bound,
    shift_attack_bound,
    sweep_malicious_fraction,
)
from .pool_composition import crossover_composition


@dataclass(frozen=True)
class EffortRow:
    """One row of the E3 security-bound table."""

    scenario: str
    pool_size: int
    malicious: int
    malicious_fraction: float
    per_round_probability: float
    expected_years: float

    @staticmethod
    def header() -> str:
        return (f"{'scenario':<34} {'pool':>5} {'bad':>5} {'frac':>6} "
                f"{'P(round)':>12} {'years':>14}")

    def formatted(self) -> str:
        years = "inf" if self.expected_years == float("inf") else f"{self.expected_years:.3g}"
        return (f"{self.scenario:<34} {self.pool_size:>5} {self.malicious:>5} "
                f"{self.malicious_fraction:>6.2f} {self.per_round_probability:>12.3e} "
                f"{years:>14}")


def _row(scenario: str, bound: ShiftAttackBound) -> EffortRow:
    return EffortRow(
        scenario=scenario,
        pool_size=bound.pool_size,
        malicious=bound.malicious_servers,
        malicious_fraction=bound.malicious_fraction,
        per_round_probability=bound.per_round_probability,
        expected_years=bound.expected_years_to_success,
    )


def chronos_security_bound_table(pool_size: int = 96, sample_size: int = 15,
                                 poll_interval: float = 900.0) -> list[EffortRow]:
    """E3: expected effort across attacker pool fractions.

    The pre-attack rows (fractions below one third) should land in the
    years-to-decades regime the Chronos paper claims; the post-DNS-attack row
    (two thirds) should collapse to a round or two.
    """
    figure1 = crossover_composition()
    rows: list[EffortRow] = []
    scenarios = [
        ("MitM, 10% of pool corrupted", 0.10),
        ("MitM, 25% of pool corrupted", 0.25),
        ("MitM, just under 1/3 (Chronos bound)", 1.0 / 3.0 - 1e-9),
        ("After DNS pool attack (2/3 of pool)", 2.0 / 3.0),
        (f"After DNS pool attack ({figure1.malicious} of {figure1.total})",
         figure1.malicious_fraction),
    ]
    for label, fraction in scenarios:
        malicious = int(fraction * pool_size)
        bound = shift_attack_bound(pool_size, malicious, sample_size, poll_interval)
        rows.append(_row(label, bound))
    return rows


def fraction_sweep_table(pool_size: int = 96, sample_size: int = 15,
                         poll_interval: float = 900.0,
                         fractions: Optional[Sequence[float]] = None) -> list[EffortRow]:
    """Fine-grained sweep of expected years versus attacker pool fraction."""
    if fractions is None:
        fractions = [i / 20.0 for i in range(0, 15)]
    bounds = sweep_malicious_fraction(pool_size, sample_size, fractions, poll_interval)
    return [_row(f"fraction={bound.malicious_fraction:.2f}", bound) for bound in bounds]


@dataclass(frozen=True)
class ShiftEffortRow:
    """One row of the 100 ms shift-effort table (the §III headline claim)."""

    scenario: str
    malicious_fraction: float
    target_shift_ms: float
    rounds_required: int
    per_round_probability: float
    expected_years: float
    panic_controlled: bool

    @staticmethod
    def header() -> str:
        return (f"{'scenario':<38} {'frac':>6} {'shift(ms)':>10} {'rounds':>7} "
                f"{'P(round)':>11} {'years':>12} {'panic?':>7}")

    def formatted(self) -> str:
        years = "inf" if self.expected_years == float("inf") else f"{self.expected_years:.3g}"
        return (f"{self.scenario:<38} {self.malicious_fraction:>6.2f} "
                f"{self.target_shift_ms:>10.0f} {self.rounds_required:>7} "
                f"{self.per_round_probability:>11.3e} {years:>12} "
                f"{str(self.panic_controlled):>7}")


def _shift_row(scenario: str, bound: CumulativeShiftBound, pool_size: int,
               malicious: int) -> ShiftEffortRow:
    return ShiftEffortRow(
        scenario=scenario,
        malicious_fraction=malicious / pool_size if pool_size else 0.0,
        target_shift_ms=bound.target_shift * 1000.0,
        rounds_required=bound.rounds_required,
        per_round_probability=bound.per_round_probability,
        expected_years=bound.expected_years,
        panic_controlled=bound.panic_controlled,
    )


def shift_effort_table(target_shift: float = 0.1, per_round_shift: float = 0.025,
                       pool_size: int = 96, sample_size: int = 15,
                       poll_interval: float = 900.0) -> list[ShiftEffortRow]:
    """E3: expected effort to shift the victim clock by ``target_shift`` seconds.

    The pre-attack rows (attacker below one third of the pool) land in the
    years-to-centuries regime — the same qualitative regime as the "20 years"
    the paper quotes from the Chronos analysis.  The post-DNS-attack rows
    (two thirds of the pool, including the exact 89-of-133 composition from
    Figure 1) collapse to under an hour.
    """
    figure1 = crossover_composition()
    scenarios = [
        ("MitM, 10% of pool corrupted", int(0.10 * pool_size)),
        ("MitM, 25% of pool corrupted", int(0.25 * pool_size)),
        ("MitM, just under 1/3 (Chronos bound)", pool_size // 3),
        ("After DNS pool attack (2/3 of pool)", (2 * pool_size) // 3 + 1),
        (f"After DNS pool attack ({figure1.malicious} of {figure1.total})", None),
    ]
    rows: list[ShiftEffortRow] = []
    for label, malicious in scenarios:
        size = pool_size
        if malicious is None:
            size, malicious = figure1.total, figure1.malicious
        bound = cumulative_shift_bound(size, malicious, sample_size,
                                       target_shift=target_shift,
                                       per_round_shift=per_round_shift,
                                       poll_interval=poll_interval)
        rows.append(_shift_row(label, bound, size, malicious))
    return rows


@dataclass(frozen=True)
class DNSAttackComparisonRow:
    """One row of the E6 comparison (plain NTP vs Chronos, DNS route)."""

    client: str
    dns_queries_observable: int
    poisonings_required: int
    poisoning_opportunities: int
    window_hours: float
    resulting_control: str

    @staticmethod
    def header() -> str:
        return (f"{'client':<22} {'DNS queries':>12} {'needed':>7} {'chances':>8} "
                f"{'window(h)':>10}  outcome")

    def formatted(self) -> str:
        return (f"{self.client:<22} {self.dns_queries_observable:>12} "
                f"{self.poisonings_required:>7} {self.poisoning_opportunities:>8} "
                f"{self.window_hours:>10.1f}  {self.resulting_control}")


def dns_attack_comparison() -> list[DNSAttackComparisonRow]:
    """E6: the paper's argument that Chronos is the easier DNS target.

    A traditional client resolves the pool name once (one chance, and the
    poisoning must win that exact race); Chronos resolves it 24 times, and
    *any* success up to the §IV crossover query hands the attacker a
    two-thirds pool majority — strictly more opportunities for a strictly
    stronger outcome.
    """
    latest_winning_query = crossover_composition().poison_at_query
    return [
        DNSAttackComparisonRow(
            client="traditional NTP",
            dns_queries_observable=1,
            poisonings_required=1,
            poisoning_opportunities=1,
            window_hours=0.0,
            resulting_control="all (up to 4) upstream servers until re-resolution",
        ),
        DNSAttackComparisonRow(
            client="Chronos",
            dns_queries_observable=SECTION4_POLICY.query_count,
            poisonings_required=1,
            poisoning_opportunities=latest_winning_query,
            window_hours=float(latest_winning_query - 1),
            resulting_control=">= 2/3 of the server pool (regular + panic mode)",
        ),
    ]


def poisoning_success_probability(per_query_success: float, opportunities: int) -> float:
    """Probability of at least one poisoning success over ``opportunities`` tries."""
    if not 0.0 <= per_query_success <= 1.0:
        raise ValueError("per_query_success must be a probability")
    return 1.0 - (1.0 - per_query_success) ** max(opportunities, 0)


def end_to_end_success_table(per_query_success_rates: Sequence[float] = (0.05, 0.1, 0.3, 0.7),
                             ) -> list[dict]:
    """E6 extension: end-to-end success probability vs per-race success rate.

    For every per-race poisoning success probability, compare the overall
    probability that the DNS stage of the attack succeeds against a
    traditional client (one race) and against Chronos (one race per query up
    to the §IV crossover, any one of which suffices).
    """
    chronos_opportunities = crossover_composition().poison_at_query
    return [{
        "per_query_success": rate,
        "traditional_overall": poisoning_success_probability(rate, 1),
        "chronos_overall": poisoning_success_probability(rate, chronos_opportunities),
    } for rate in per_query_success_rates]
