"""Race-timeline reconstruction, end-to-end traced runs, and digest safety."""

from __future__ import annotations

from repro import obs
from repro.attacks.frag_poisoning import FragPoisoningConfig, FragPoisoningScenario
from repro.experiments import (
    LEGACY_ATTACKS,
    LEGACY_STACKS,
    ExperimentSpec,
    SweepScheduler,
    get_scenario,
    run_defense_matrix,
)
from repro.obs.timeline import (
    build_race_timelines,
    format_races,
    poisoning_races,
)
from repro.obs.trace import TraceEvent


def _instant(name, ts, seq, **args):
    return TraceEvent(name=name, phase="i", ts=ts, category="t",
                      args=tuple(args.items()), seq=seq)


# -- reconstruction from synthetic events -------------------------------------------------

def test_races_keyed_by_txid_and_qname():
    events = [
        _instant("dns.query.sent", 0.0, 0, qname="a.org", txid=1),
        _instant("dns.query.sent", 0.0, 1, qname="b.org", txid=1),
        _instant("dns.response.accepted", 0.1, 2, qname="a.org", txid=1,
                 poisoned=False),
        _instant("dns.response.accepted", 0.2, 3, qname="b.org", txid=1,
                 poisoned=True),
    ]
    races = build_race_timelines(events)
    assert [(race.qname, race.winner) for race in races] == [
        ("a.org", "legitimate"), ("b.org", "attacker")]


def test_attack_events_attach_to_overlapping_races():
    events = [
        # fragments planted *before* the query they poison
        _instant("attack.frag_burst", 0.0, 0, fragments=16),
        _instant("dns.query.sent", 1.0, 1, qname="a.org", txid=9),
        _instant("dns.response.accepted", 1.5, 2, qname="a.org", txid=9,
                 poisoned=True),
        # a much later query the burst has nothing to do with
        _instant("dns.query.sent", 500.0, 3, qname="a.org", txid=10),
        _instant("dns.response.accepted", 500.5, 4, qname="a.org", txid=10,
                 poisoned=False),
    ]
    first, second = build_race_timelines(events)
    assert [entry.kind for entry in first.entries][:2] == [
        "attack: fragment burst", "query sent"]
    assert not second.attack_entries
    assert poisoning_races(events) == [first]


def test_deciding_verdict_prefers_the_poisoned_rejection():
    events = [
        _instant("dns.query.sent", 0.0, 0, qname="a.org", txid=1),
        _instant("dns.response.rejected", 0.1, 1, qname="a.org", txid=1,
                 defense="dns_0x20", reason="case mismatch", poisoned=True),
        _instant("dns.response.accepted", 0.2, 2, qname="a.org", txid=1,
                 poisoned=False),
    ]
    (race,) = build_race_timelines(events)
    assert race.winner == "legitimate"
    assert race.deciding_verdict.detail["defense"] == "dns_0x20"
    report = format_races(events)
    assert "decided by: dns_0x20 (case mismatch)" in report


def test_format_races_empty():
    assert format_races([]) == "no races recorded"


# -- the real thing: a traced frag-poisoning run ------------------------------------------

def test_traced_frag_poisoning_yields_ordered_race():
    with obs.capture() as ob:
        result = FragPoisoningScenario(FragPoisoningConfig()).run()
    assert result["cache_poisoned"]
    (race,) = poisoning_races(ob.trace.events())

    kinds = [entry.kind for entry in race.entries]
    assert "attack: fragment burst" in kinds
    assert "response candidate" in kinds
    assert "response accepted" in kinds
    # attacker burst lands no later than the legitimate response arrives,
    # and entries are in simulated-time order throughout
    burst = next(e for e in race.entries if e.kind == "attack: fragment burst")
    candidate = next(e for e in race.entries if e.kind == "response candidate")
    assert burst.ts <= candidate.ts
    assert [e.ts for e in race.entries] == sorted(e.ts for e in race.entries)
    assert race.winner == "attacker"


def test_traced_defended_run_names_the_deciding_defense():
    with obs.capture() as ob:
        result = FragPoisoningScenario(
            FragPoisoningConfig(defenses=("fragment_rejection",))).run()
    assert not result["cache_poisoned"]
    (race,) = poisoning_races(ob.trace.events())
    assert race.winner is None
    assert race.deciding_verdict.detail["defense"] == "fragment_rejection"
    snapshot = ob.metrics.snapshot()
    assert snapshot.counter("dns.responses_rejected",
                            defense="fragment_rejection") == 1


# -- digest safety ------------------------------------------------------------------------

SMALL = {"attacks": LEGACY_ATTACKS[3:4], "stacks": LEGACY_STACKS[:2], "seeds": (1,)}


def test_matrix_digest_identical_traced_and_untraced():
    untraced = run_defense_matrix(**SMALL).digest()
    with obs.capture() as ob:
        traced = run_defense_matrix(**SMALL).digest()
    assert traced == untraced
    assert not ob.metrics.snapshot().is_empty()
    assert len(ob.trace) > 0


def test_matrix_digest_identical_with_worker_metrics():
    baseline = run_defense_matrix(**SMALL)
    collected = run_defense_matrix(**SMALL, collect_metrics=True)
    assert collected.digest() == baseline.digest()
    merged = collected.sweep_stats.metrics
    assert merged is not None and not merged.is_empty()
    # per-task registries merged across the sweep: every executed run
    # contributes its simulator's event counter
    assert merged.counter("sim.events_executed") > 0


def test_scheduler_ships_metrics_through_the_pool(pool_cpus):
    spec = ExperimentSpec("frag_poisoning", seeds=(1, 2, 3))
    (inline,), inline_stats = SweepScheduler(
        workers=1, collect_metrics=True).run_specs([spec])
    (pooled,), pooled_stats = SweepScheduler(
        workers=2, collect_metrics=True).run_specs([spec])
    assert not pooled_stats.executed_inline
    defaults = get_scenario("frag_poisoning").default_params()
    assert all(set(defaults) <= set(record.params) for record in inline.records)
    assert inline.to_json() == pooled.to_json()
    assert inline_stats.metrics.to_dict() == pooled_stats.metrics.to_dict()
    assert inline_stats.task_seconds_total > 0
    assert 0.0 <= inline_stats.worker_utilization <= 1.0
