"""Tests for the composable defense subsystem.

Three contracts:

* **composition** — stacks are ordered, buildable by name, and account for
  which defense rejected what;
* **vector fidelity** — each defense blocks exactly the vectors the paper
  says it blocks (0x20/cookies stop classic blind spoofing but neither the
  hijack nor the fragmentation vector; fragment rejection stops only the
  splice; multi-vantage degrades the hijack vector; signing stops both);
* **equivalence** — the §V mitigations as defenses reproduce, metric for
  metric, what the retired pool-policy knobs produced.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.attacks import FragPoisoningConfig, FragPoisoningScenario
from repro.defenses import (
    DefenseStack,
    HighTTLDiscard,
    PerResponseAddressCap,
    PoolAcceptContext,
    available_defenses,
    build_defense,
)
from repro.defenses.base import MAX_ADDRESSES, MAX_TTL
from repro.defenses.registry import register_defense
from repro.dns.message import DNSMessage
from repro.dns.nameserver import DNS_PORT, PoolNTPNameserver
from repro.dns.records import RecordType, a_record
from repro.dns.resolver import RecursiveResolver
from repro.experiments import (
    ExperimentSpec,
    SweepScheduler,
    TestbedConfig,
    build_testbed,
    get_scenario,
    run_scenario,
)
from repro.netsim.network import Network
from repro.netsim.packets import UDPDatagram
from repro.netsim.simulator import Simulator
from repro.ntp.query import TimeSample


# -- registry and composition -------------------------------------------------------

def test_every_builtin_defense_is_listed_with_a_description():
    listing = available_defenses()
    expected = {"random_txid", "random_source_port", "response_matching",
                "fragment_rejection", "response_record_cap", "cache_ttl_cap",
                "dns_0x20", "dns_cookies", "pmtu_floor", "response_signing",
                "address_cap", "ttl_discard", "multi_vantage"}
    assert expected <= set(listing)
    assert all(listing[name] for name in expected)


@pytest.mark.parametrize("name", sorted(
    name for name in available_defenses() if not name.startswith("encrypted_transport")))
def test_every_defense_but_encrypted_transport_is_one_fixed_rule(name):
    # Built by name only: a defense's numbers are constants, not knobs.
    defense = build_defense(name)
    with pytest.raises(TypeError):
        type(defense)(1)


def test_unknown_defense_name_is_rejected():
    with pytest.raises(KeyError, match="unknown defense"):
        build_defense("no_such_defense")
    with pytest.raises(KeyError, match="unknown defense"):
        run_scenario("bgp_hijack", 1, {"defenses": ("no_such_defense",)})


def test_registry_rejects_nameless_and_duplicate_factories():
    class Nameless:
        pass

    with pytest.raises(ValueError, match="needs a class-level name"):
        register_defense(Nameless)
    with pytest.raises(ValueError, match="already registered"):
        register_defense(type("Dup", (), {"name": "dns_0x20"}))


def test_stack_builds_fresh_instances_and_preserves_order():
    first = DefenseStack.from_spec(("ttl_discard", "address_cap"))
    second = DefenseStack.from_spec(("ttl_discard", "address_cap"))
    assert first.names == second.names == ("ttl_discard", "address_cap")
    assert first.defenses[0] is not second.defenses[0]
    mixed = DefenseStack.from_spec((PerResponseAddressCap(), "ttl_discard"))
    assert mixed.names == ("address_cap", "ttl_discard")


CLASSIC = ("random_txid", "random_source_port", "response_matching")


def test_every_resolver_stack_opens_with_the_classic_defenses():
    network = Network(Simulator(seed=1))
    assert RecursiveResolver(network, "192.0.2.1", {}).defenses.names == CLASSIC
    scenario = FragPoisoningScenario(FragPoisoningConfig(accept_fragments=False,
                                                         defenses=("dns_0x20",)))
    assert scenario.resolver.defenses.names == (*CLASSIC, "fragment_rejection", "dns_0x20")


def test_fragment_acceptance_sweep_is_pinned():
    # accept_fragments=False is the fragment_rejection defense; every run's
    # record (rejection counts included) is pinned.
    (result,), _ = SweepScheduler().run_specs([ExperimentSpec(
        "frag_poisoning", seeds=(1, 2, 3, 4), param_sets=(
            {"accept_fragments": False},
            {"accept_fragments": False, "defenses": ("dns_0x20", "ttl_discard")},
            {"accept_fragments": True},
        ))])
    assert result.digest() == ("3b654327378e263c3f1d1727478df81e75ae544ff4770ed64d"
                               "1057261a343488")


def test_stack_pool_hooks_run_in_order_and_account_rejections():
    # Discard-then-cap: a high-TTL response never reaches the cap.
    stack = DefenseStack.from_spec(("ttl_discard", "address_cap"))
    poisoned = PoolAcceptContext(addresses=[f"198.51.100.{i}" for i in range(10)],
                                 min_ttl=172800)
    stack.on_pool_accept(poisoned)
    assert poisoned.addresses == []
    assert poisoned.rejected_by == "ttl_discard"
    assert stack.rejections == {"ttl_discard": 1}
    benign = PoolAcceptContext(addresses=[f"10.0.0.{i}" for i in range(10)], min_ttl=150)
    stack.on_pool_accept(benign)
    assert len(benign.addresses) == 4
    assert benign.rejected_by is None


def test_section5_defense_names_build_the_paper_parameters():
    defenses = list(DefenseStack.from_spec(("ttl_discard", "address_cap")))
    assert [type(d) for d in defenses] == [HighTTLDiscard, PerResponseAddressCap]
    assert (MAX_TTL, MAX_ADDRESSES) == (3600, 4)
    at_bound = PoolAcceptContext(addresses=[f"10.0.0.{i}" for i in range(5)], min_ttl=3600)
    DefenseStack(defenses).on_pool_accept(at_bound)
    assert len(at_bound.addresses) == 4
    above = PoolAcceptContext(addresses=["10.0.0.1"], min_ttl=3601)
    DefenseStack(defenses).on_pool_accept(above)
    assert above.rejected_by == "ttl_discard"


def test_every_scenario_accepts_a_defenses_key():
    for name in ("chronos_pool_attack", "traditional_client_attack",
                 "bgp_hijack", "frag_poisoning"):
        assert get_scenario(name).default_params()["defenses"] == ()


# -- blind spoofing: what the classic + entropy defenses are for ---------------------

def blind_spoof_attempt(defenses=()):
    """Race the genuine response with a forged one that carries the query's
    transaction id and source port, read off the resolver's pending query:
    a spoofer that beat RFC 5452's txid and port entropy."""
    simulator = Simulator(seed=11)
    network = Network(simulator, latency=0.01)
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[f"10.0.0.{i + 1}" for i in range(8)])
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address},
                                 defenses=DefenseStack.from_spec(defenses))
    resolver.trigger_lookup("pool.ntp.org")
    ((txid, _), pending), = resolver._pending.items()
    forged = DNSMessage.query(txid, "pool.ntp.org").make_response(
        [a_record("pool.ntp.org", "198.51.100.99", 172800)])

    def inject():
        network.send_datagram(UDPDatagram(
            src_ip=nameserver.address, dst_ip=resolver.address,
            src_port=DNS_PORT, dst_port=pending.source_port, payload=forged.encode()))

    # Injected right after the query leaves, so the forgery (one latency
    # away) beats the genuine answer (two latencies away) to the resolver.
    simulator.schedule(0.001, inject)
    simulator.run(until=5.0)
    entry = resolver.cache.peek("pool.ntp.org", RecordType.A)
    assert entry is not None
    return any(record.rdata == "198.51.100.99" for record in entry.records), resolver


def test_classic_resolver_falls_to_a_spoofer_that_knows_txid_and_port():
    poisoned, resolver = blind_spoof_attempt()
    assert poisoned
    assert not resolver.defenses.rejections


def test_dns_0x20_stops_blind_spoofing():
    poisoned, resolver = blind_spoof_attempt(("dns_0x20",))
    assert not poisoned
    assert resolver.defenses.rejections["dns_0x20"] == 1


def test_dns_cookies_stop_blind_spoofing():
    poisoned, resolver = blind_spoof_attempt(("dns_cookies",))
    assert not poisoned
    assert resolver.defenses.rejections["dns_cookies"] == 1


# -- vector fidelity: who blocks what ------------------------------------------------

def bgp_hijack_succeeds(defenses):
    return run_scenario("bgp_hijack", 3,
                        {"benign_server_count": 10,
                         "defenses": defenses})["attack_succeeded"]


def frag_poisoning_succeeds(defenses):
    return run_scenario("frag_poisoning", 3,
                        {"benign_server_count": 40,
                         "defenses": defenses})["attack_succeeded"]


def test_entropy_hardenings_do_not_stop_the_hijack_vector():
    assert bgp_hijack_succeeds(())
    assert bgp_hijack_succeeds(("dns_0x20",))
    assert bgp_hijack_succeeds(("dns_cookies",))
    assert bgp_hijack_succeeds(("fragment_rejection",))


def test_entropy_hardenings_do_not_stop_the_fragmentation_vector():
    assert frag_poisoning_succeeds(())
    assert frag_poisoning_succeeds(("dns_0x20",))
    assert frag_poisoning_succeeds(("dns_cookies",))


def test_fragment_rejection_stops_the_fragmentation_vector():
    assert not frag_poisoning_succeeds(("fragment_rejection",))


def test_pmtu_floor_stops_the_fragmentation_vector_at_the_source():
    assert not frag_poisoning_succeeds(("pmtu_floor",))


def test_response_signing_stops_both_vectors():
    assert not bgp_hijack_succeeds(("response_signing",))
    assert not frag_poisoning_succeeds(("response_signing",))


def test_multi_vantage_degrades_bgp_hijack():
    assert not bgp_hijack_succeeds(("multi_vantage",))
    metrics = run_scenario("bgp_hijack", 3,
                           {"benign_server_count": 10,
                            "defenses": ("multi_vantage",)})
    assert metrics["defense_rejections"] == {"multi_vantage": 1}
    assert metrics["malicious_records_cached"] == 0


def test_multi_vantage_also_catches_the_spliced_high_ttl_records():
    assert not frag_poisoning_succeeds(("multi_vantage",))


# -- §V equivalence: the retired pool knobs vs. the defenses --------------------------

CHRONOS_BASE = {"poison_at_query": 1, "run_time_shift": False,
                "benign_server_count": 30}


def pool_metrics(benign, malicious, shift, panic_rounds, poisoned=()):
    """A ``chronos_pool_attack`` metric dict at the default parameters."""
    pool_size = benign + malicious
    return {"defense_rejections": {}, "attack_succeeded": False,
            "attacker_fraction": malicious / pool_size, "benign": benign,
            "malicious": malicious, "pool_size": pool_size, "cache_hits": 21,
            "poisoned_queries": list(poisoned), "achieved_shift": shift,
            "shift_achieved": False, "updates_run": 6, "panic_rounds": panic_rounds}


CAP_RECORDS = [pool_metrics(8, 4, 0.007300615310668945, 0, range(3, 25)),
               pool_metrics(7, 4, 0.006688117980957031, 0, range(3, 25)),
               pool_metrics(8, 4, 0.0014832019805908203, 0, range(3, 25))]
TTL_RECORDS = [pool_metrics(8, 0, 0.00028705596923828125, 6),
               pool_metrics(7, 0, 0.003780364990234375, 6),
               pool_metrics(8, 0, -0.0023956298828125, 6)]

#: ``run_scenario("chronos_pool_attack", seed, knobs)`` for seeds 1-3 as the
#: pool-policy knobs produced it (cap 4 and/or TTL 3600) before they became
#: these defenses; "both" equalled the TTL discard alone.  The knobs ran on a
#: private stack whose vetoes went uncounted, so ``defense_rejections`` is
#: the one metric that moves: each lists its new value.
KNOB_RECORDS = {
    ("address_cap",): (CAP_RECORDS, {}),
    ("ttl_discard",): (TTL_RECORDS, {"ttl_discard": 22}),
    ("ttl_discard", "address_cap"): (TTL_RECORDS, {"ttl_discard": 22}),
}


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("defenses", list(KNOB_RECORDS))
def test_section5_defenses_reproduce_the_retired_pool_knobs(defenses, seed):
    records, rejections = KNOB_RECORDS[defenses]
    metrics = run_scenario("chronos_pool_attack", seed, {"defenses": defenses})
    assert metrics == {**records[seed - 1], "defense_rejections": rejections}


def test_section5_defenses_reproduce_the_retired_knobs_under_a_full_day_hijack():
    metrics = run_scenario("chronos_pool_attack", 5, {
        "poison_at_query": 1, "hijack_duration": 24 * 3600.0 + 1200.0,
        "malicious_ttl": 300, "defenses": ("ttl_discard", "address_cap")})
    assert metrics == {
        "defense_rejections": {}, "attack_succeeded": True, "attacker_fraction": 1.0,
        "benign": 0, "malicious": 4, "pool_size": 4, "cache_hits": 0,
        "poisoned_queries": list(range(1, 25)), "achieved_shift": 600.0,
        "shift_achieved": True, "updates_run": 6, "panic_rounds": 6}


@pytest.mark.parametrize("knob", [{"max_addresses_per_response": 4},
                                  {"max_accepted_ttl": 3600}])
def test_retired_pool_knobs_are_rejected(knob):
    with pytest.raises(ValueError, match="retired"):
        run_scenario("chronos_pool_attack", 5, {**CHRONOS_BASE, **knob})


def test_section5_mitigations_block_a_single_poisoning():
    metrics = run_scenario("chronos_pool_attack", 5,
                           {**CHRONOS_BASE, "defenses": ("ttl_discard", "address_cap")})
    assert not metrics["attack_succeeded"]
    assert (metrics["benign"], metrics["malicious"], metrics["pool_size"]) == (0, 0, 0)
    assert metrics["defense_rejections"] == {"ttl_discard": 24}


def test_address_cap_alone_leaves_attacker_majority():
    metrics = run_scenario("chronos_pool_attack", 5,
                           {**CHRONOS_BASE, "defenses": ("address_cap",)})
    assert metrics["malicious"] <= 4
    assert metrics["benign"] == 0
    assert metrics["attack_succeeded"]


def test_sustained_hijack_defeats_every_pool_side_stack():
    residual = {**CHRONOS_BASE,
                "hijack_duration": 24 * 3600.0 + 1200.0,
                "malicious_ttl": 300, "attacker_record_count": 4}
    for defenses in (("ttl_discard", "address_cap"),
                     ("multi_vantage", "ttl_discard", "address_cap")):
        metrics = run_scenario("chronos_pool_attack", 5,
                               {**residual, "defenses": defenses})
        assert metrics["attack_succeeded"]
        assert metrics["benign"] == 0


# -- NTP-side hook --------------------------------------------------------------------

def make_sample(offset):
    return TimeSample(server="10.0.0.1", offset=offset, delay=0.02,
                      stratum=2, root_dispersion=0.01, completed_at=1.0)


def test_multi_vantage_vetoes_implausible_ntp_samples():
    stack = DefenseStack.from_spec(("multi_vantage",))
    assert stack.on_ntp_sample(make_sample(0.005))
    assert not stack.on_ntp_sample(make_sample(600.0))
    assert stack.rejections == {"multi_vantage": 1}


# -- testbed lifecycle ----------------------------------------------------------------

def test_pmtu_floor_configures_the_testbed_without_mutating_the_caller_config():
    config = TestbedConfig(seed=1, benign_server_count=5, nameserver_min_mtu=548,
                           with_attacker=False, defenses=("pmtu_floor",))
    before = replace(config)
    testbed = build_testbed(config)
    assert testbed.nameserver.min_supported_mtu == 1500
    assert testbed.network.effective_mtu(testbed.nameserver.address) == 1500
    # The build reads the caller's config object and never writes it.
    assert testbed.config is config
    assert config == before and config.nameserver_min_mtu == 548


def test_response_signing_provisions_a_zone_key_and_signed_answers():
    testbed = build_testbed(TestbedConfig(seed=1, benign_server_count=5,
                                          with_attacker=False,
                                          defenses=("response_signing",)))
    assert testbed.nameserver.zone_key == "zsk|pool.ntp.org|1"
    testbed.resolver.trigger_lookup("pool.ntp.org")
    testbed.simulator.run(until=5.0)
    entry = testbed.resolver.cache.peek("pool.ntp.org", RecordType.A)
    assert entry is not None and len(entry.records) == 4
    assert all(record.rtype == RecordType.A for record in entry.records)


def test_testbed_defense_stack_is_shared_with_the_resolver():
    testbed = build_testbed(TestbedConfig(seed=1, benign_server_count=5,
                                          with_attacker=False,
                                          defenses=("multi_vantage",)))
    assert testbed.defenses.names == ("multi_vantage",)
    vantage = testbed.defenses.defenses[0]
    assert vantage in list(testbed.resolver.defenses)
    # attach_testbed captured the zone's published profile.
    assert vantage._expected_count == testbed.nameserver.records_per_response
    assert vantage._expected_ttl == testbed.nameserver.ttl
