"""Tests for the attack × defense matrix and its §V reproduction.

The expensive full-grid properties (every attack × every stack, §V analytic
agreement, residual-hijack rate, the pinned full-grid digest) run once on
the pinned seeds; determinism is checked on a trimmed grid across worker
counts, which must be byte-identical because the matrix inherits the
runner's ordering guarantees.
"""

from __future__ import annotations

import pytest

from repro.analysis import SECTION5_ATTACKS, SECTION5_STACKS, section5_from_matrix
from repro.experiments import (
    DEFAULT_ATTACKS,
    DEFAULT_STACKS,
    AttackSpec,
    DefenseStackSpec,
    matrix_specs,
    run_defense_matrix,
)
from repro.experiments.cache import canonical_json
from repro.experiments.pins import FULL_GRID_DIGEST, TRIMMED_GRID_DIGEST
from repro.experiments.runner import resolve_spec_tasks

#: A cheap grid for determinism checks: both poisoning vectors under three
#: stacks with tiny populations.
TRIMMED_ATTACKS = (
    AttackSpec("bgp_hijack", "bgp_hijack", {"benign_server_count": 10}),
    AttackSpec("frag_poisoning", "frag_poisoning", {"benign_server_count": 40}),
)
TRIMMED_STACKS = (
    DefenseStackSpec("classic", ()),
    DefenseStackSpec("dnssec", ("response_signing",)),
    DefenseStackSpec("multi_vantage", ("multi_vantage",)),
)

@pytest.fixture(scope="module")
def full_matrix():
    """The default grid at the pinned seeds (1, 2), run once per module."""
    return run_defense_matrix(seeds=(1, 2), workers=2)


def test_full_grid_digest_is_pinned(full_matrix):
    assert full_matrix.digest() == FULL_GRID_DIGEST


def test_attack_spec_rejects_a_defenses_param():
    with pytest.raises(ValueError, match="must not set 'defenses'"):
        AttackSpec("bad", "bgp_hijack", {"defenses": ("dns_0x20",)})


def test_default_grid_covers_all_attacks_and_enough_stacks(full_matrix):
    scenario_names = {attack.scenario for attack in DEFAULT_ATTACKS}
    assert {"chronos_pool_attack", "traditional_client_attack",
            "bgp_hijack", "frag_poisoning", "downgrade"} <= scenario_names
    assert len(DEFAULT_STACKS) >= 5
    assert len(full_matrix.cells) == len(DEFAULT_ATTACKS) * len(DEFAULT_STACKS)
    for attack in DEFAULT_ATTACKS:
        for stack in DEFAULT_STACKS:
            assert full_matrix.cell(attack.label, stack.name).runs == 2


def test_default_grid_extends_the_legacy_grid_in_place():
    from repro.experiments import LEGACY_ATTACKS, LEGACY_STACKS

    assert DEFAULT_ATTACKS[:len(LEGACY_ATTACKS)] == LEGACY_ATTACKS
    assert DEFAULT_STACKS[:len(LEGACY_STACKS)] == LEGACY_STACKS
    assert [a.label for a in DEFAULT_ATTACKS[len(LEGACY_ATTACKS):]] == ["downgrade"]
    assert [s.name for s in DEFAULT_STACKS[len(LEGACY_STACKS):]] == [
        "dot_strict", "dot_opportunistic"]


def test_matrix_blocking_pattern_matches_the_paper(full_matrix):
    table = full_matrix.success_table()
    # The classic defenses stop neither vector.
    assert table["bgp_hijack"]["classic"] == 1.0
    assert table["frag_poisoning"]["classic"] == 1.0
    # Entropy hardenings stop neither vector either.
    for stack in ("dns_0x20", "dns_cookies"):
        assert table["bgp_hijack"][stack] == 1.0
        assert table["frag_poisoning"][stack] == 1.0
    # Fragment rejection stops exactly the splice.
    assert table["frag_poisoning"]["frag_reject"] == 0.0
    assert table["bgp_hijack"]["frag_reject"] == 1.0
    # Content authentication clears every row.
    assert all(rates["dnssec"] == 0.0 for rates in table.values())
    # Multi-vantage degrades the hijack vector end to end...
    assert table["bgp_hijack"]["multi_vantage"] == 0.0
    assert table["chronos_poisoning"]["multi_vantage"] == 0.0
    # ...but the §V residual threat model walks through everything that is
    # not content authentication.
    assert table["chronos_24h_hijack"]["section5"] == 1.0
    assert table["chronos_24h_hijack"]["multi_vantage"] == 1.0
    assert table["chronos_24h_hijack"]["hardened"] == 1.0


def test_strict_dot_column_clears_every_offpath_row(full_matrix):
    table = full_matrix.success_table()
    # Strict encrypted transport closes every off-path vector — including
    # the residual 24-hour hijack, which no legacy stack short of DNSSEC
    # stopped: the hijacker can blackhole resolution but no longer answer it.
    for attack, rates in table.items():
        assert rates["dot_strict"] == 0.0, attack


def test_downgrade_row_keeps_the_transport_columns_honest(full_matrix):
    table = full_matrix.success_table()
    # The downgrade vector walks through the opportunistic policy (fallback
    # is the vulnerability) and fails closed against strict DoT.
    assert table["downgrade"]["dot_opportunistic"] == 1.0
    assert table["downgrade"]["dot_strict"] == 0.0
    # Without a transport defense the scenario degenerates to the classic
    # fragmentation race, with the matching blocking pattern.
    assert table["downgrade"]["classic"] == 1.0
    assert table["downgrade"]["frag_reject"] == 0.0
    assert table["downgrade"]["dnssec"] == 0.0
    # Opportunistic DoT incidentally blocks the pure frag splice (the query
    # rides the stream) but reopens every hijack-driven row via fallback.
    assert table["frag_poisoning"]["dot_opportunistic"] == 0.0
    assert table["bgp_hijack"]["dot_opportunistic"] == 1.0
    assert table["chronos_24h_hijack"]["dot_opportunistic"] == 1.0


def test_matrix_reproduces_the_section5_analytic_table(full_matrix):
    comparisons = section5_from_matrix(full_matrix)
    assert [c.label for c in comparisons] == [
        "no mitigation, poisoning at query 1",
        "max 4 addresses per response (alone)",
        "high-TTL responses discarded",
        "both mitigations (single poisoning)",
        "both mitigations, 24h DNS hijack (residual)",
    ]
    for comparison in comparisons:
        assert comparison.verdict_agrees, comparison.formatted()
        # Every cell's mean counts over seeds (1, 2) are the closed form's.
        assert comparison.simulated_benign == comparison.analytic.benign
        assert comparison.simulated_malicious == comparison.analytic.malicious
    assert comparisons[0].simulated_malicious == 89
    assert comparisons[1].simulated_malicious == 4
    assert full_matrix.residual_hijack_rate() == 1.0


def test_trimmed_matrix_is_byte_identical_across_worker_counts():
    sequential = run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS,
                                    seeds=(1, 2), workers=1)
    parallel = run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS,
                                  seeds=(1, 2), workers=2)
    assert sequential.digest() == parallel.digest()
    for key in sequential.cells:
        assert sequential.cells[key].result.records == parallel.cells[key].result.records
    # The transport subsystem is invisible to pre-transport cells: the
    # trimmed legacy grid still digests to its pinned value.
    assert sequential.digest() == TRIMMED_GRID_DIGEST


def test_matrix_cell_addressing_and_reporting():
    matrix = run_defense_matrix(TRIMMED_ATTACKS, TRIMMED_STACKS, seeds=(1,))
    assert matrix.cell("bgp_hijack", "dnssec").success_rate == 0.0
    assert len(matrix.row("bgp_hijack")) == len(TRIMMED_STACKS)
    assert len(matrix.column("dnssec")) == len(TRIMMED_ATTACKS)
    with pytest.raises(KeyError, match="no cell"):
        matrix.cell("bgp_hijack", "no_such_stack")
    lines = matrix.formatted()
    assert len(lines) == len(TRIMMED_ATTACKS) + 1
    assert "dnssec" in lines[0]
    interval = matrix.cell("frag_poisoning", "classic").success_interval
    assert interval.low <= 1.0 <= interval.high


def test_section5_slice_is_a_subset_of_the_default_grid():
    """E8's §V cells are grid cells, so they replay from a shared RunCache."""
    def tasks(attacks, stacks):
        return {(name, seed, canonical_json(params))
                for spec in matrix_specs(attacks, stacks, (1, 2, 3))
                for name, seed, params in resolve_spec_tasks(spec)}

    section5 = tasks(SECTION5_ATTACKS, SECTION5_STACKS)
    assert len(section5) == len(SECTION5_ATTACKS) * len(SECTION5_STACKS) * 3
    assert section5 <= tasks(DEFAULT_ATTACKS, DEFAULT_STACKS)


@pytest.mark.parametrize("attacks, stacks, duplicate", [
    (TRIMMED_ATTACKS[:1],
     (DefenseStackSpec("x", ()), DefenseStackSpec("x", ("response_signing",))),
     "stack name"),
    ((TRIMMED_ATTACKS[0], AttackSpec("bgp_hijack", "frag_poisoning")),
     TRIMMED_STACKS[:1], "attack label"),
])
def test_duplicate_axis_names_are_rejected(attacks, stacks, duplicate):
    with pytest.raises(ValueError, match=f"duplicate {duplicate}"):
        run_defense_matrix(attacks, stacks, seeds=(1,))


@pytest.mark.parametrize("attacks, stacks, axis", [
    ((), TRIMMED_STACKS, "attack label"),
    (TRIMMED_ATTACKS, (), "stack name"),
])
def test_empty_axis_is_rejected(attacks, stacks, axis):
    with pytest.raises(ValueError, match=f"the matrix has no {axis}s"):
        run_defense_matrix(attacks, stacks, seeds=(1,))
