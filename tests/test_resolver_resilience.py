"""Resolver retries, RFC 8767 serve-stale, and the NTP client's single shot.

These are the endpoint halves of the fault-injection story: the network can
now lose, delay and blackhole packets on a schedule, and the endpoints earn
back availability with retransmission budgets and stale answers — each with
its deliberate security downside, asserted here alongside the upside.
"""

from __future__ import annotations

from _counters import count, observed_simulator

from repro.defenses import DefenseStack
from repro.dns.cache import SERVE_STALE_WINDOW, DNSCache
from repro.dns.nameserver import PoolNTPNameserver
from repro.dns.records import RecordType, a_record
from repro.dns.resolver import (
    QUERY_RETRIES,
    QUERY_TIMEOUT,
    RETRY_BACKOFF,
    RETRY_JITTER,
    STALE_ANSWER_TTL,
    DNSStub,
    RecursiveResolver,
)
from repro.faults import FaultInjector, FaultPlan
from repro.netsim.network import Host, Network
from repro.ntp.clock import SystemClock
from repro.ntp.query import NTPQuerier


class StubHost(Host):
    def __init__(self, network, address, resolver_address):
        super().__init__(network, address)
        self.dns = DNSStub(self, resolver_address)

    def handle_datagram(self, datagram):
        self.dns.handle_datagram(datagram)


def build_world(defenses=(), seed=5, faults=()):
    simulator = observed_simulator(seed)
    network = Network(simulator, latency=0.01)
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[f"10.0.0.{i + 1}" for i in range(20)])
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address},
                                 defenses=DefenseStack.from_spec(defenses))
    client = StubHost(network, "192.0.2.100", resolver.address)
    if faults:
        FaultInjector(network, FaultPlan.from_spec(faults)).arm()
    return simulator, network, nameserver, resolver, client


# -- upstream query retries ---------------------------------------------------

#: The nameserver is dark past the first query's 5 s timeout; the first
#: retransmission (after 5 s + 0.25 s of backoff) finds it back.
OUTAGE = ({"kind": "host_outage", "host": "192.0.2.53", "start": 0.0, "end": 5.1},)


def test_retries_recover_a_query_through_an_upstream_outage():
    # The client still gets an answer — where the classic fail-fast
    # resolver SERVFAILs.
    simulator, _, nameserver, resolver, client = build_world(("upstream_retries",),
                                                             faults=OUTAGE)
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=30.0)
    assert answers and answers[0]
    assert count(simulator, "dns.query_retries") == 1
    assert nameserver.queries_received == 1


def test_classic_resolver_still_fails_fast_through_the_same_outage():
    simulator, _, _, resolver, client = build_world(faults=OUTAGE)
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=30.0)
    assert answers == [[]]
    assert count(simulator, "dns.query_retries") == 0


def test_retry_backoff_schedule_is_exponential_and_deterministic():
    def timeline(seed):
        simulator, network, _, resolver, client = build_world(
            ("upstream_retries",), seed=seed,
            faults=({"kind": "host_outage", "host": "192.0.2.53",
                     "start": 0.0, "end": 9e9},))
        sent = []
        original = resolver._send_upstream_datagram

        def recording(pending):
            sent.append(simulator.now)
            original(pending)

        resolver._send_upstream_datagram = recording
        client.dns.lookup("pool.ntp.org", lambda a: None)
        simulator.run(until=60.0)
        return sent

    first = timeline(seed=9)
    # initial send, then 5 s timeout + 0.25/0.5 s backoffs (plus jitter).
    assert (QUERY_TIMEOUT, QUERY_RETRIES) == (5.0, 2)
    assert (RETRY_BACKOFF, RETRY_JITTER) == (0.25, 0.05)
    assert len(first) == 3
    gaps = [round(b - a, 6) for a, b in zip(first, first[1:])]
    for gap, backoff in zip(gaps, (0.25, 0.5)):
        assert 5.0 + backoff <= gap <= 5.0 + backoff + 0.05
    assert timeline(seed=9) == first          # same seed, same schedule
    assert timeline(seed=10) != first         # jitter is seed-dependent


def test_late_answer_during_backoff_still_resolves_the_query():
    # Extra latency on the nameserver's answers pushes the upstream RTT
    # (5.02 s) past the query timeout: the first attempt "times out", but the
    # pending entry survives into the backoff window, so the slow genuine
    # answer still lands and resolves.
    simulator, _, nameserver, resolver, client = build_world(
        ("upstream_retries",),
        faults=({"kind": "latency_ramp", "extra_latency": 5.0, "src": "192.0.2.53",
                 "start": 0.0, "end": 9e9},))
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=30.0)
    assert answers and answers[0]
    assert count(simulator, "dns.query_timeouts") >= 1
    assert nameserver.queries_received == 1   # answered before any retransmit


# -- serve-stale --------------------------------------------------------------

STALE = ("serve_stale",)


def test_stale_answer_served_during_outage_with_clamped_ttl():
    simulator, _, nameserver, resolver, client = build_world(
        STALE,
        faults=({"kind": "host_outage", "host": "192.0.2.53",
                 "start": 10.0, "end": 9e9},))
    first, messages = [], []
    client.dns.lookup("pool.ntp.org", first.append)
    simulator.run(until=5.0)
    simulator.run(until=400.0)               # TTL 150 s: entry expired, ns down
    client.dns.lookup_message("pool.ntp.org", messages.append)
    simulator.run(until=430.0)
    assert messages and [r.rdata for r in messages[0].answers] == first[0]
    assert all(r.ttl == STALE_ANSWER_TTL for r in messages[0].answers)
    assert count(simulator, "dns.stale_answers") == 1


def test_stale_answer_triggers_background_refresh_when_upstream_returns():
    simulator, _, nameserver, resolver, client = build_world(
        STALE,
        faults=({"kind": "host_outage", "host": "192.0.2.53",
                 "start": 10.0, "end": 395.0},))
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=5.0)
    simulator.run(until=400.0)
    # Outage just lifted; the stale answer satisfies the client immediately
    # and the background refresh reaches the recovered nameserver.
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=410.0)
    assert count(simulator, "dns.stale_answers") == 1
    assert nameserver.queries_received == 2   # original + background refresh
    # The refresh re-primed the cache: the next lookup is a fresh hit.
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=420.0)
    assert count(simulator, "dns.stale_answers") == 1
    assert resolver.queries_answered_from_cache == 1


def test_no_duplicate_background_refresh_while_one_is_in_flight():
    simulator, _, nameserver, resolver, client = build_world(
        STALE,
        faults=({"kind": "host_outage", "host": "192.0.2.53",
                 "start": 10.0, "end": 9e9},))
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=5.0)
    simulator.run(until=400.0)
    client.dns.lookup("pool.ntp.org", lambda a: None)
    client.dns.lookup("pool.ntp.org", lambda a: None)   # before refresh times out
    simulator.run(until=400.5)
    assert count(simulator, "dns.stale_answers") == 2
    assert resolver.queries_forwarded == 2    # original + ONE refresh


def test_entry_past_the_stale_window_is_a_full_miss():
    simulator, _, nameserver, resolver, client = build_world(STALE)
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=5.0)
    # TTL 150 + window 3600 s < 3800: the entry is unservable and evicted.
    assert SERVE_STALE_WINDOW == 3600.0
    simulator.run(until=3800.0)
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=3810.0)
    assert count(simulator, "dns.stale_answers") == 0
    assert nameserver.queries_received == 2
    assert answers and answers[0]


def test_serve_stale_prolongs_a_poisoned_entry_past_its_ttl():
    """The defense's dark side, asserted on purpose: an attacker's record
    outlives the TTL it paid for whenever the upstream path is down."""
    simulator, _, _, resolver, client = build_world(
        STALE,
        faults=({"kind": "host_outage", "host": "192.0.2.53",
                 "start": 0.0, "end": 9e9},))
    resolver.cache.insert("pool.ntp.org", RecordType.A,
                          [a_record("pool.ntp.org", "198.51.100.66", ttl=60)],
                          now=0.0, poisoned=True)
    simulator.run(until=120.0)               # poisoned entry now expired
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=130.0)
    assert answers == [["198.51.100.66"]]    # stale poison, still served
    assert count(simulator, "dns.stale_answers") == 1


def test_cache_lookup_stale_window_semantics():
    cache = DNSCache(serve_stale=True)
    cache.insert("x.example", RecordType.A,
                 [a_record("x.example", "203.0.113.1", ttl=50)], now=0.0)
    # Live: normal hit, no stale involvement.
    assert cache.lookup("x.example", RecordType.A, now=10.0) is not None
    assert cache.lookup_stale("x.example", RecordType.A, now=10.0) is None
    # Expired, inside the window: miss on lookup (entry kept), stale hit.
    assert cache.lookup("x.example", RecordType.A, now=60.0) is None
    assert cache.peek("x.example", RecordType.A) is not None
    assert cache.lookup_stale("x.example", RecordType.A, now=60.0) is not None
    # Still inside the window one second before it closes.
    assert cache.lookup_stale("x.example", RecordType.A, now=3649.0) is not None
    # Past the window: evicted by either path.
    assert cache.lookup_stale("x.example", RecordType.A, now=3650.0) is None
    assert cache.peek("x.example", RecordType.A) is None


def test_without_serve_stale_the_window_is_zero():
    simulator, _, _, resolver, _ = build_world()
    cache = resolver.cache
    assert cache.serve_stale is False
    cache.insert("x.example", RecordType.A,
                 [a_record("x.example", "203.0.113.1", ttl=50)], now=0.0)
    assert cache.lookup_stale("x.example", RecordType.A, now=50.0) is None
    assert cache.peek("x.example", RecordType.A) is None


# -- NTP client timeouts ------------------------------------------------------

class NTPClientHost(Host):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.querier = NTPQuerier(self, SystemClock(network.simulator))

    def handle_datagram(self, datagram):
        self.querier.handle_datagram(datagram)


def test_ntp_querier_without_retries_keeps_classic_single_shot():
    simulator = observed_simulator(23)
    network = Network(simulator, latency=0.01)
    client = NTPClientHost(network, "192.0.2.200")
    outcomes = []
    client.querier.query("192.0.2.250", outcomes.append)
    simulator.run(until=30.0)
    assert outcomes == [None]
    assert count(simulator, "ntp.queries_sent") == 1
    assert count(simulator, "ntp.query_timeouts") == 1


def test_ntp_query_during_a_server_outage_fails_once_and_a_later_one_recovers():
    from repro.ntp.server import NTPServer

    simulator = observed_simulator(21)
    network = Network(simulator, latency=0.01)
    NTPServer(network, "192.0.2.10", SystemClock(simulator))
    client = NTPClientHost(network, "192.0.2.200")
    FaultInjector(network, FaultPlan.from_spec((
        {"kind": "host_outage", "host": "192.0.2.10", "start": 0.0, "end": 2.0},
    ))).arm()
    samples = []
    client.querier.query("192.0.2.10", samples.append)
    simulator.run(until=5.0)
    # No retransmission: the query sent into the outage is lost for good.
    assert samples == [None]
    assert count(simulator, "ntp.queries_sent") == 1
    assert count(simulator, "ntp.query_timeouts") == 1
    client.querier.query("192.0.2.10", samples.append)
    simulator.run(until=10.0)
    assert len(samples) == 2 and samples[1] is not None
    assert count(simulator, "ntp.query_timeouts") == 1


# -- defense-stack surfacing --------------------------------------------------

def test_serve_stale_defense_switches_the_testbed_resolver():
    from repro.experiments.testbed import TestbedConfig, build_testbed

    testbed = build_testbed(TestbedConfig(seed=1, defenses=("serve_stale",)))
    assert testbed.resolver.cache.serve_stale is True
    assert testbed.resolver.query_retries == 0


def test_upstream_retries_defense_switches_the_testbed_resolver():
    from repro.experiments.testbed import TestbedConfig, build_testbed

    testbed = build_testbed(TestbedConfig(seed=1, defenses=("upstream_retries",)))
    assert testbed.resolver.query_retries == QUERY_RETRIES
    assert testbed.resolver.cache.serve_stale is False


def test_a_hand_built_resolver_reads_the_resilience_switches_from_its_stack():
    dark = {"kind": "host_outage", "host": "192.0.2.53", "end": 9e9}
    simulator, _, _, _, client = build_world(STALE, faults=(dict(dark, start=10.0),))
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=400.0)               # TTL 150 s: entry expired, ns down
    answers = []
    client.dns.lookup("pool.ntp.org", answers.append)
    simulator.run(until=410.0)
    assert answers and answers[0]
    assert count(simulator, "dns.stale_answers") == 1

    simulator, network, _, _, client = build_world(("upstream_retries",),
                                                   faults=(dict(dark, start=0.0),))
    sent = []
    network.add_tap(lambda packet, now: packet.dst_ip == "192.0.2.53" and sent.append(now))
    client.dns.lookup("pool.ntp.org", lambda a: None)
    simulator.run(until=30.0)
    assert len(sent) == 1 + QUERY_RETRIES == 3
    assert count(simulator, "dns.query_timeouts") == 3


def test_resilience_stacks_are_not_in_the_pinned_default_grid():
    from repro.experiments.matrix import DEFAULT_STACKS, RESILIENCE_STACKS

    default_names = {stack.name for stack in DEFAULT_STACKS}
    assert {stack.name for stack in RESILIENCE_STACKS}.isdisjoint(default_names)


def test_resilience_grid_digests_are_pinned():
    """Both resilience grids, plain and under the chaos fault plan, hold
    their pins; together they exercise the retry and the stale-answer path."""
    from dataclasses import replace

    from repro.experiments.matrix import (
        DEFAULT_ATTACKS,
        RESILIENCE_STACKS,
        run_defense_matrix,
    )
    from repro.experiments.pins import (
        CHAOS_FAULTS,
        RESILIENCE_CHAOS_GRID_DIGEST,
        RESILIENCE_GRID_DIGEST,
    )

    chaos_attacks = tuple(
        replace(attack, label=f"{attack.label}_chaos",
                params={**attack.params, "faults": CHAOS_FAULTS})
        for attack in DEFAULT_ATTACKS)
    plain = run_defense_matrix(DEFAULT_ATTACKS, RESILIENCE_STACKS, seeds=(1, 2),
                               collect_metrics=True)
    chaos = run_defense_matrix(chaos_attacks, RESILIENCE_STACKS, seeds=(1, 2),
                               collect_metrics=True)
    assert plain.digest() == RESILIENCE_GRID_DIGEST
    assert chaos.digest() == RESILIENCE_CHAOS_GRID_DIGEST
    metrics = [grid.sweep_stats.metrics for grid in (plain, chaos)]
    assert sum(m.counter_total("dns.query_retries") for m in metrics) == 40
    assert sum(m.counter_total("dns.stale_answers") for m in metrics) == 166
