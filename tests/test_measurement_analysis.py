"""Tests for the measurement studies (E4) and the analysis/experiment modules."""

from __future__ import annotations

import pytest

from repro.analysis.effort import (
    chronos_security_bound_table,
    dns_attack_comparison,
    end_to_end_success_table,
    fraction_sweep_table,
    poisoning_success_probability,
    shift_effort_table,
)
from repro.analysis.mitigations import analytic_mitigation_table
from repro.analysis.poisoning_vectors import feasibility_row, mtu_sweep, vulnerable_pair_fraction
from repro.analysis.pool_composition import (
    analytic_sweep,
    crossover_query_index,
    figure1_report,
    simulated_composition,
)
from repro.analysis.response_capacity import (
    capacity_table,
    paper_capacity_claim,
    verify_capacity_by_encoding,
)
from repro.measurement.nameserver_study import probe_nameserver, run_nameserver_study
from repro.measurement.population import (
    NameserverProfile,
    ResolverProfile,
    generate_nameserver_population,
    generate_resolver_population,
)
from repro.measurement.resolver_study import run_resolver_study


# -- populations -----------------------------------------------------------------------

def test_nameserver_population_matches_16_of_30():
    population = generate_nameserver_population(seed=0)
    assert len(population) == 30
    vulnerable = [p for p in population if p.vulnerable_to_fragmentation_poisoning]
    assert len(vulnerable) == 16


def test_nameserver_population_is_seed_deterministic():
    a = generate_nameserver_population(seed=5)
    b = generate_nameserver_population(seed=5)
    assert a == b


def test_nameserver_population_rejects_bad_counts():
    with pytest.raises(ValueError):
        generate_nameserver_population(fragmenting=40, total=30)


def test_populations_accept_an_injected_rng():
    """An injected generator takes precedence over ``seed`` and composes with
    experiment-level seeding (same stream, same population)."""
    import random

    assert (generate_nameserver_population(seed=0, rng=random.Random(9))
            == generate_nameserver_population(seed=9))
    assert (generate_resolver_population(seed=0, total=200,
                                         rng=random.Random(9))
            == generate_resolver_population(seed=9, total=200))
    # A shared generator advances across calls: two draws differ.
    shared = random.Random(4)
    first = generate_nameserver_population(rng=shared)
    second = generate_nameserver_population(rng=shared)
    assert first != second


def test_default_seed_populations_are_pinned():
    """The rng-injection refactor must not move the historical default-seed
    populations (other pinned results are derived from them)."""
    import hashlib

    ns = hashlib.sha256(repr(generate_nameserver_population()).encode()).hexdigest()
    rs = hashlib.sha256(repr(generate_resolver_population()).encode()).hexdigest()
    assert ns == "7d3b7de4bf7d5da1683bf1d843d9821e2da67cc4080ae3a612050a4caf3a54f5"
    assert rs == "80a58f28a4fcbcca80a936bf0111735f9630c67440fb26d6748a69e92ee670bc"


def test_resolver_population_matches_published_fractions():
    population = generate_resolver_population(seed=0, total=1000)
    accept_any = sum(1 for p in population if p.accepts_any_fragments)
    accept_min = sum(1 for p in population if p.accepts_minimum_fragments)
    triggerable = sum(1 for p in population if p.externally_triggerable)
    assert accept_any == 900
    assert accept_min == 640
    assert triggerable == 140


def test_resolver_population_fraction_validation():
    with pytest.raises(ValueError):
        generate_resolver_population(accept_any_fraction=0.5, accept_minimum_fraction=0.9)


def test_resolver_profile_fragment_acceptance_logic():
    profile = ResolverProfile("r", min_accepted_fragment_mtu=296,
                              triggerable_via_smtp=False, open_resolver=False)
    assert profile.accepts_any_fragments
    assert profile.accepts_fragment_mtu(548)
    assert not profile.accepts_fragment_mtu(68)
    assert not profile.accepts_minimum_fragments
    rejecting = ResolverProfile("r2", min_accepted_fragment_mtu=None,
                                triggerable_via_smtp=False, open_resolver=True)
    assert not rejecting.accepts_any_fragments
    assert rejecting.externally_triggerable


# -- studies ------------------------------------------------------------------------------

def test_nameserver_study_reproduces_paper_row():
    report = run_nameserver_study(generate_nameserver_population(seed=0))
    assert report.total == 30
    assert report.fragmenting_without_dnssec == 16
    assert "16 out of 30" in report.summary_row()
    assert "548" in report.summary_row()


def test_probe_classifies_single_profiles():
    fragmenting = NameserverProfile("a", min_fragmentation_mtu=548, supports_dnssec=False)
    rigid = NameserverProfile("b", min_fragmentation_mtu=1500, supports_dnssec=False)
    signed = NameserverProfile("c", min_fragmentation_mtu=548, supports_dnssec=True)
    assert probe_nameserver(fragmenting).usable_for_fragmentation_poisoning
    assert not probe_nameserver(rigid).usable_for_fragmentation_poisoning
    assert not probe_nameserver(signed).usable_for_fragmentation_poisoning


def test_resolver_study_reproduces_paper_fractions():
    report = run_resolver_study(generate_resolver_population(seed=0, total=2000))
    assert report.accept_any_fraction == pytest.approx(0.90, abs=0.005)
    assert report.accept_minimum_fraction == pytest.approx(0.64, abs=0.005)
    assert report.triggerable_fraction == pytest.approx(0.14, abs=0.005)
    rows = report.summary_rows()
    assert any("90%" in row for row in rows)
    assert any("64%" in row for row in rows)
    assert any("14%" in row for row in rows)
    assert sum(report.by_trigger_method.values()) == report.triggerable


# -- E5: response capacity ------------------------------------------------------------------

def test_paper_capacity_claim_is_89():
    assert paper_capacity_claim() == 89


def test_capacity_verification_by_encoding():
    result = verify_capacity_by_encoding()
    assert result["record_count"] == 89
    assert result["fits"]
    assert result["one_more_overflows"]


def test_capacity_table_is_monotone():
    rows = capacity_table()
    capacities = [row.max_a_records for row in rows]
    assert capacities == sorted(capacities)
    assert all(row.exact_response_size <= row.payload_limit for row in rows)


# -- E1/E2: pool composition sweeps -----------------------------------------------------------

def test_analytic_sweep_covers_every_query_and_no_attack():
    rows = analytic_sweep()
    assert len(rows) == 25
    assert rows[0].poison_at_query is None
    assert rows[0].malicious == 0


def test_crossover_query_index_is_12():
    assert crossover_query_index(analytic_sweep()) == 12


def test_sweep_fraction_decreases_with_later_poisoning():
    rows = [row for row in analytic_sweep() if row.poison_at_query is not None]
    fractions = [row.malicious_fraction for row in rows]
    assert fractions == sorted(fractions, reverse=True)


def test_simulated_composition_agrees_with_analytic_at_query_1():
    row = simulated_composition(1, seed=2)
    assert row.malicious == 89
    assert row.attacker_has_two_thirds


def test_figure1_report_contents():
    report = figure1_report(poison_at_query=2, seed=3)
    assert report["analytic_benign_at_query_12"] == 44
    assert report["analytic_malicious"] == 89
    assert report["attack_succeeded"]


def test_row_formatting_is_printable():
    rows = analytic_sweep()
    header = rows[0].header()
    assert "benign" in header
    assert all(isinstance(row.formatted(), str) for row in rows[:3])


# -- E3/E6: effort tables ----------------------------------------------------------------------

def test_security_bound_table_shows_collapse_after_attack():
    rows = chronos_security_bound_table()
    by_scenario = {row.scenario: row for row in rows}
    before = by_scenario["MitM, just under 1/3 (Chronos bound)"]
    after = by_scenario["After DNS pool attack (89 of 133)"]
    assert after.per_round_probability > 0.5
    assert before.per_round_probability < 0.01
    assert before.expected_years > after.expected_years * 100


def test_shift_effort_table_years_vs_minutes():
    rows = shift_effort_table()
    pre = [row for row in rows if not row.panic_controlled]
    post = [row for row in rows if row.panic_controlled]
    assert pre and post
    assert all(row.expected_years > 1.0 or row.expected_years == float("inf") for row in pre[1:])
    assert all(row.expected_years < 0.01 for row in post)


def test_fraction_sweep_is_monotone_in_probability():
    rows = fraction_sweep_table(fractions=[0.1, 0.2, 0.3, 0.4, 0.5])
    probabilities = [row.per_round_probability for row in rows]
    assert probabilities == sorted(probabilities)


def test_dns_attack_comparison_rows():
    rows = dns_attack_comparison()
    traditional = next(row for row in rows if row.client == "traditional NTP")
    chronos = next(row for row in rows if row.client == "Chronos")
    assert traditional.poisoning_opportunities == 1
    assert chronos.poisoning_opportunities == 12
    assert chronos.dns_queries_observable == 24


def test_poisoning_success_probability_math():
    assert poisoning_success_probability(0.1, 1) == pytest.approx(0.1)
    assert poisoning_success_probability(0.1, 12) == pytest.approx(1 - 0.9 ** 12)
    assert poisoning_success_probability(0.0, 12) == 0.0
    with pytest.raises(ValueError):
        poisoning_success_probability(1.5, 1)


def test_end_to_end_success_table_chronos_always_easier():
    for row in end_to_end_success_table():
        assert row["chronos_overall"] >= row["traditional_overall"]


# -- E7: vector feasibility ---------------------------------------------------------------------

def test_mtu_sweep_feasible_only_when_fragmenting():
    rows = mtu_sweep()
    by_mtu = {row.nameserver_min_mtu: row for row in rows}
    assert not by_mtu[1500].feasible
    assert by_mtu[548].feasible
    assert by_mtu[548].success_probability == 1.0


def test_feasibility_row_respects_resolver_rejection():
    nameserver = NameserverProfile("ns", min_fragmentation_mtu=548, supports_dnssec=False)
    rejecting = ResolverProfile("r", min_accepted_fragment_mtu=None,
                                triggerable_via_smtp=True, open_resolver=False)
    row = feasibility_row(nameserver, rejecting)
    assert not row.feasible
    assert row.success_probability == 0.0


def test_vulnerable_pair_fraction_bounds():
    nameservers = generate_nameserver_population(seed=2)
    resolvers = generate_resolver_population(seed=2, total=50)
    fraction = vulnerable_pair_fraction(nameservers, resolvers)
    assert 0.0 <= fraction <= 1.0
    assert fraction > 0.2  # a substantial share of pairs is attackable
    assert vulnerable_pair_fraction([], resolvers) == 0.0


# -- E8: mitigation table -----------------------------------------------------------------------

def test_analytic_mitigation_table_shapes():
    rows = analytic_mitigation_table()
    counts = {row.scenario: (row.benign, row.malicious) for row in rows}
    assert counts == {
        "no mitigation, poisoning at query 1": (0, 89),
        "max 4 addresses per response (alone)": (0, 4),
        # The discarded entry stays cached and starves every later query:
        # no attacker majority, and no pool either.
        "high-TTL responses discarded": (0, 0),
        "both mitigations (single poisoning)": (0, 0),
        "both mitigations, 24h DNS hijack (residual)": (0, 4),
    }
    by_scenario = {row.scenario: row for row in rows}
    assert by_scenario["no mitigation, poisoning at query 1"].attacker_has_two_thirds
    assert by_scenario["max 4 addresses per response (alone)"].attacker_has_two_thirds
    assert not by_scenario["high-TTL responses discarded"].attacker_has_two_thirds
    assert not by_scenario["both mitigations (single poisoning)"].attacker_has_two_thirds
    residual = by_scenario["both mitigations, 24h DNS hijack (residual)"]
    assert residual.attacker_has_two_thirds
    assert residual.malicious_fraction == 1.0
