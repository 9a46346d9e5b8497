"""E8: the §V mitigations and the residual 24-hour-hijack attack.

The packet-level rows are the defense-matrix cells that reproduce the §V
table: the ``SECTION5_ATTACKS`` × ``SECTION5_STACKS`` slice of the default
grid, so they run the grid's threat model and share its cached cells.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.mitigations import (
    SECTION5_ATTACKS,
    SECTION5_STACKS,
    MitigationRow,
    analytic_mitigation_table,
    section5_from_matrix,
)
from repro.experiments import run_defense_matrix


def run_tables():
    matrix = run_defense_matrix(SECTION5_ATTACKS, SECTION5_STACKS, seeds=(3,))
    return analytic_mitigation_table(), section5_from_matrix(matrix)


def test_mitigations(benchmark):
    analytic, simulated = benchmark.pedantic(run_tables, rounds=1, iterations=1)
    lines = [MitigationRow.header()]
    lines += [row.formatted() for row in analytic]
    lines.append("-- packet-level (defense-matrix cells) --")
    lines += [row.formatted() for row in simulated]
    lines.append("(paper §V: cap records per reply and discard high TTLs; the DNS "
                 "dependency itself remains — a 24 h hijack still wins)")
    emit("E8 — mitigation evaluation and residual attack", lines)

    for row in simulated:
        assert row.verdict_agrees and row.counts_agree, row.formatted()
    analytic_by = {row.scenario: row for row in analytic}
    simulated_by = {row.label: row for row in simulated}
    assert not analytic_by["both mitigations (single poisoning)"].attacker_has_two_thirds
    assert analytic_by["both mitigations, 24h DNS hijack (residual)"].attacker_has_two_thirds
    assert simulated_by["both mitigations (single poisoning)"].simulated_success_rate == 0.0
    assert simulated_by["both mitigations, 24h DNS hijack (residual)"].simulated_success_rate == 1.0
