"""Fault-plan parsing, the injector's per-kind semantics, and chaos determinism."""

from __future__ import annotations

import json

import pytest
from _counters import count, observed_simulator

from repro.experiments.pins import CHAOS_GRID_DIGEST, chaos_grid_digest
from repro.faults import (
    Duplicate,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    HostOutage,
    LatencyRamp,
    LinkFlap,
    LinkLoss,
    ReorderJitter,
)
from repro.faults.plan import event_from_spec, event_to_spec, window_scale
from repro.netsim.network import Host, Network
from repro.netsim.packets import UDPDatagram


class Sink(Host):
    """Counts datagram deliveries."""

    def __init__(self, network, address):
        super().__init__(network, address)
        self.delivered = []

    def handle_datagram(self, datagram):
        self.delivered.append((self.network.simulator.now, datagram))


def build_net(seed=1, latency=0.01):
    sim = observed_simulator(seed)
    net = Network(sim, latency=latency)
    a = Sink(net, "10.0.0.1")
    b = Sink(net, "10.0.0.2")
    return sim, net, a, b


def send(net, src, dst, payload=b"x"):
    net.send_datagram(UDPDatagram(src_ip=src, dst_ip=dst, src_port=1000,
                                  dst_port=2000, payload=payload))


# -- plan specs ---------------------------------------------------------------

def test_every_event_kind_roundtrips_through_spec_form():
    plan = FaultPlan(events=(
        LinkLoss(start=0.0, end=10.0, loss_rate=0.5, src="a", dst="b", ramp=2.0),
        LatencyRamp(start=1.0, end=5.0, extra_latency=0.2),
        LinkFlap(start=0.0, end=30.0, down_time=2.0, up_time=3.0),
        Duplicate(start=0.0, end=4.0, probability=0.3, delay=0.05),
        ReorderJitter(start=0.0, end=8.0, jitter=0.1),
        HostOutage(start=2.0, end=3.0, host="@nameserver"),
    ))
    spec = plan.to_spec()
    # The spec form is plain JSON data: cache keys and workers can carry it.
    json.dumps(spec)
    assert FaultPlan.from_spec(spec) == plan
    # Event instances pass through from_spec untouched.
    assert FaultPlan.from_spec(plan.events) == plan


def test_event_to_spec_includes_kind_and_all_fields():
    spec = event_to_spec(LinkLoss(start=0.0, end=1.0, loss_rate=0.25))
    assert spec["kind"] == "link_loss"
    assert spec["loss_rate"] == 0.25
    assert spec["src"] == "*" and spec["dst"] == "*"


@pytest.mark.parametrize("bad_spec, match", [
    ({"kind": "nope", "start": 0.0, "end": 1.0}, "unknown fault kind"),
    ({"kind": "link_loss", "start": 0.0, "end": 1.0, "rate": 0.5}, "unknown field"),
    ({"kind": "link_loss", "end": 1.0}, "bad 'link_loss'"),
    ("link_loss", "must be a dict"),
])
def test_malformed_event_specs_are_rejected(bad_spec, match):
    with pytest.raises(FaultPlanError, match=match):
        event_from_spec(bad_spec)


@pytest.mark.parametrize("build", [
    lambda: LinkLoss(start=5.0, end=5.0, loss_rate=0.1),     # empty window
    lambda: LinkLoss(start=-1.0, end=5.0, loss_rate=0.1),    # negative start
    lambda: LinkLoss(start=0.0, end=1.0, loss_rate=1.5),     # rate > 1
    lambda: LinkFlap(start=0.0, end=1.0, down_time=0.0),     # degenerate flap
    lambda: HostOutage(start=0.0, end=1.0, host=""),         # no host
    lambda: Duplicate(start=0.0, end=1.0, probability=0.5, delay=-1.0),
    lambda: ReorderJitter(start=0.0, end=1.0, jitter=-0.1),
    lambda: LatencyRamp(start=0.0, end=1.0, extra_latency=-0.5),
])
def test_invalid_event_parameters_are_rejected(build):
    with pytest.raises(FaultPlanError):
        build()


def test_empty_plan_is_falsy_and_iterable():
    assert not FaultPlan()
    assert len(FaultPlan()) == 0
    assert list(FaultPlan.from_spec(None)) == []
    assert FaultPlan(events=(HostOutage(start=0.0, end=1.0, host="h"),))


def test_window_scale_ramp_envelope():
    # No ramp: a step function over the window.
    assert window_scale(5.0, 0.0, 10.0, 0.0) == 1.0
    assert window_scale(10.0, 0.0, 10.0, 0.0) == 0.0   # end-exclusive
    assert window_scale(-1.0, 0.0, 10.0, 0.0) == 0.0
    # With a ramp, intensity climbs linearly then falls symmetrically.
    assert window_scale(1.0, 0.0, 10.0, 2.0) == pytest.approx(0.5)
    assert window_scale(5.0, 0.0, 10.0, 2.0) == 1.0
    assert window_scale(9.0, 0.0, 10.0, 2.0) == pytest.approx(0.5)


# -- injector semantics -------------------------------------------------------

def test_full_window_loss_drops_and_accounts_packets():
    sim, net, a, b = build_net(seed=3)
    injector = FaultInjector(net, FaultPlan(events=(
        LinkLoss(start=0.0, end=100.0, loss_rate=1.0,
                 src="10.0.0.1", dst="10.0.0.2"),
    ))).arm()
    for _ in range(5):
        send(net, "10.0.0.1", "10.0.0.2")
    # The reverse direction does not match and passes.
    send(net, "10.0.0.2", "10.0.0.1")
    sim.run(until=1.0)
    assert b.delivered == []
    assert len(a.delivered) == 1
    assert injector.stats.drops == {"loss": 5}
    assert injector.stats.packets_dropped == 5
    assert count(sim, "net.packets_dropped", reason="loss") == 5


def test_probabilistic_loss_is_reproducible_per_seed():
    def dropped(seed):
        sim, net, a, b = build_net(seed=seed)
        FaultInjector(net, FaultPlan(events=(
            LinkLoss(start=0.0, end=100.0, loss_rate=0.5),
        ))).arm()
        for i in range(40):
            send(net, "10.0.0.1", "10.0.0.2", payload=bytes([i]))
        sim.run(until=1.0)
        return [d.payload[0] for _, d in b.delivered]

    assert dropped(seed=7) == dropped(seed=7)
    assert dropped(seed=7) != dropped(seed=8)


def test_host_outage_blocks_both_directions_without_rng_draws():
    sim, net, a, b = build_net(seed=4)
    injector = FaultInjector(net, FaultPlan(events=(
        HostOutage(start=0.0, end=100.0, host="10.0.0.2"),
    ))).arm()
    state = sim.rng.getstate()
    send(net, "10.0.0.1", "10.0.0.2")
    send(net, "10.0.0.2", "10.0.0.1")
    # Hard faults are checked before any probabilistic draw, so the run's
    # RNG stream is exactly what it would be had the packets never existed.
    assert sim.rng.getstate() == state
    sim.run(until=1.0)
    assert a.delivered == [] and b.delivered == []
    assert injector.stats.drops == {"outage": 2}


def test_outage_window_closes_and_host_recovers():
    sim, net, a, b = build_net(seed=4)
    FaultInjector(net, FaultPlan(events=(
        HostOutage(start=0.0, end=5.0, host="10.0.0.2"),
    ))).arm()
    send(net, "10.0.0.1", "10.0.0.2")           # dropped: outage active
    sim.schedule(6.0, lambda: send(net, "10.0.0.1", "10.0.0.2"))
    sim.run(until=10.0)
    assert len(b.delivered) == 1                 # the post-restart packet


def test_link_flap_square_wave_timeline():
    sim, net, a, b = build_net(seed=6)
    injector = FaultInjector(net, FaultPlan(events=(
        LinkFlap(start=0.0, end=10.0, down_time=2.0, up_time=2.0,
                 src="10.0.0.1", dst="10.0.0.2"),
    ))).arm()
    # Down [0,2), up [2,4), down [4,6), up [6,8), down [8,10), up after.
    for t in (1.0, 3.0, 5.0, 7.0, 11.0):
        sim.schedule(t, lambda: send(net, "10.0.0.1", "10.0.0.2"))
    sim.run(until=15.0)
    delivered_at = [round(t - 0.01, 3) for t, _ in b.delivered]
    assert delivered_at == [3.0, 7.0, 11.0]
    assert injector.stats.drops == {"flap": 2}


def test_duplicate_delivers_packet_twice():
    sim, net, a, b = build_net(seed=7)
    injector = FaultInjector(net, FaultPlan(events=(
        Duplicate(start=0.0, end=10.0, probability=1.0, delay=0.5,
                  src="10.0.0.1", dst="10.0.0.2"),
    ))).arm()
    send(net, "10.0.0.1", "10.0.0.2")
    sim.run(until=2.0)
    assert len(b.delivered) == 2
    first, second = (t for t, _ in b.delivered)
    assert second - first == pytest.approx(0.5)
    assert injector.stats.packets_duplicated == 1
    assert count(sim, "net.packets_duplicated") == 1


def test_latency_ramp_delays_matching_packets():
    sim, net, a, b = build_net(seed=8)
    injector = FaultInjector(net, FaultPlan(events=(
        LatencyRamp(start=0.0, end=100.0, extra_latency=1.0),
    ))).arm()
    send(net, "10.0.0.1", "10.0.0.2")
    sim.run(until=5.0)
    assert [t for t, _ in b.delivered] == [pytest.approx(1.01)]
    assert injector.stats.packets_delayed == 1


def test_reorder_jitter_reorders_a_burst():
    sim, net, a, b = build_net(seed=9)
    FaultInjector(net, FaultPlan(events=(
        ReorderJitter(start=0.0, end=100.0, jitter=0.5),
    ))).arm()
    for i in range(10):
        send(net, "10.0.0.1", "10.0.0.2", payload=bytes([i]))
    sim.run(until=2.0)
    order = [d.payload[0] for _, d in b.delivered]
    assert len(order) == 10
    assert order != sorted(order)       # at least one inversion at this seed


def test_windows_already_open_at_arm_time_apply_synchronously():
    sim, net, a, b = build_net(seed=10)
    FaultInjector(net, FaultPlan(events=(
        LinkLoss(start=0.0, end=100.0, loss_rate=1.0),
    ))).arm()
    # No simulator step has run yet — the packet must still hit the fault.
    send(net, "10.0.0.1", "10.0.0.2")
    sim.run(until=1.0)
    assert b.delivered == []


def test_unknown_alias_is_rejected_at_arm_time():
    sim, net, a, b = build_net()
    injector = FaultInjector(net, FaultPlan(events=(
        HostOutage(start=0.0, end=1.0, host="@nameserver"),
    )), aliases={"@resolver": "10.0.0.1"})
    with pytest.raises(FaultPlanError, match="unknown address alias"):
        injector.arm()


def test_injector_arms_only_once():
    sim, net, a, b = build_net()
    injector = FaultInjector(net, FaultPlan(events=(
        HostOutage(start=0.0, end=1.0, host="10.0.0.2"),
    ))).arm()
    with pytest.raises(FaultPlanError, match="armed once"):
        injector.arm()


# -- testbed and sweep integration --------------------------------------------

def test_testbed_without_faults_has_no_injector():
    from repro.experiments.testbed import TestbedConfig, build_testbed
    testbed = build_testbed(TestbedConfig(seed=1))
    assert testbed.faults is None
    assert testbed.network.faults is None


def test_testbed_resolves_builtin_aliases():
    from repro.experiments.testbed import TestbedConfig, build_testbed
    cfg = TestbedConfig(seed=1, faults=(
        {"kind": "host_outage", "start": 0.0, "end": 9e9, "host": "@nameserver"},
    ))
    testbed = build_testbed(cfg)
    assert testbed.faults is not None
    assert testbed.network.faults is testbed.faults
    assert testbed.faults._down_hosts == {cfg.nameserver_address: 1}


def test_scenario_rejects_unknown_params_but_accepts_faults():
    from repro.experiments.registry import get_scenario
    scenario = get_scenario("frag_poisoning")
    # ``faults`` is an *optional* param: absent from default_params() (so
    # pinned digests of fault-free sweeps never change) yet accepted when
    # explicitly supplied.
    assert "faults" not in scenario.default_params()
    with pytest.raises(ValueError, match="unknown scenario parameter"):
        scenario.run(seed=1, params={"fautls": ()})


def test_chaos_grid_digest_is_pinned_and_worker_count_independent():
    inline = chaos_grid_digest(workers=1)
    pooled = chaos_grid_digest(workers=4)
    assert inline == pooled
    assert inline == CHAOS_GRID_DIGEST, (
        f"chaos grid digest moved: {inline} (pinned {CHAOS_GRID_DIGEST})")


def test_chaos_grid_digest_is_population_backend_independent(monkeypatch):
    monkeypatch.setenv("REPRO_POPULATION_BACKEND", "python")
    assert chaos_grid_digest(workers=1) == CHAOS_GRID_DIGEST


def test_faulted_scenario_differs_from_fault_free_run():
    from repro.experiments.registry import get_scenario
    scenario = get_scenario("frag_poisoning")
    clean = scenario.run(seed=1, params={"benign_server_count": 40})
    heavy = scenario.run(seed=1, params={
        "benign_server_count": 40,
        "faults": ({"kind": "link_loss", "loss_rate": 0.95, "src": "@nameserver",
                    "dst": "@resolver", "start": 0.0, "end": 9e9},),
    })
    # The chaos must actually bite: heavy upstream loss changes the outcome.
    assert clean != heavy
