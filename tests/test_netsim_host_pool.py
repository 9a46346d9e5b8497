"""The lazy host pool: NTP servers are built on their first packet.

Gates:

* building every pool host right after the testbed is built (the eager
  world) gives each default attack row the same result dict as the lazy
  world, with no defenses and with opportunistic DoT;
* a cold pinned grid window builds exactly the 96 servers that receive a
  packet (``net.hosts_built``), all in the ``traditional_client`` row;
* registration, BGP diversion, the attacker's time shift and the benign
  clock errors behave as they did when every host was built up front.
"""

from __future__ import annotations

import pytest
from _counters import count, observed_simulator

from repro.attacks.attacker import build_attacker_infrastructure
from repro.experiments import TestbedConfig, build_testbed, run_scenario
from repro.experiments.matrix import DEFAULT_ATTACKS, DEFAULT_STACKS, run_defense_matrix
from repro.experiments.pins import FULL_GRID_DIGEST
from repro.experiments.testbed import TestbedBuilder
from repro.netsim.network import Host, Network, NetworkError
from repro.netsim.packets import UDPDatagram
from repro.ntp.clock import SystemClock
from repro.ntp.query import NTPQuerier
from repro.ntp.server import NTPServer

STACKS = {stack.name: stack.defenses for stack in DEFAULT_STACKS}


class QuerierHost(Host):
    """A host that sends NTP queries and keeps the samples."""

    def __init__(self, network, address):
        super().__init__(network, address)
        self.querier = NTPQuerier(self, SystemClock(network.simulator))
        self.samples = []

    def handle_datagram(self, datagram):
        self.querier.handle_datagram(datagram)

    def query(self, server):
        self.querier.query(server, self.samples.append)


def make_network():
    simulator = observed_simulator(5)
    return simulator, Network(simulator, latency=0.01)


# -- eager and lazy worlds agree ---------------------------------------------------

def build_every_pool_host(monkeypatch):
    """Patch the builder so every testbed builds its pool hosts up front."""
    lazy_build = TestbedBuilder.build

    def eager_build(self, victim_factory=None):
        testbed = lazy_build(self, victim_factory)
        addresses = list(testbed.benign_clock_errors)
        if testbed.attacker is not None:
            addresses += testbed.attacker.ntp_addresses
        for address in addresses:
            assert testbed.network.host_for(address) is not None
        return testbed

    monkeypatch.setattr(TestbedBuilder, "build", eager_build)


@pytest.mark.parametrize("stack", ["classic", "dot_opportunistic"])
@pytest.mark.parametrize("attack", DEFAULT_ATTACKS, ids=lambda attack: attack.label)
def test_building_every_host_up_front_changes_no_result(attack, stack, monkeypatch):
    params = {**attack.params, "defenses": STACKS[stack]}
    lazy = run_scenario(attack.scenario, 1, params)
    build_every_pool_host(monkeypatch)
    assert run_scenario(attack.scenario, 1, params) == lazy


def test_a_cold_pinned_window_builds_only_the_servers_it_queries():
    matrix = run_defense_matrix(seeds=(1, 2), workers=1, collect_metrics=True)
    assert matrix.digest() == FULL_GRID_DIGEST
    metrics = matrix.sweep_stats.metrics
    assert metrics.counter("net.hosts_built", pool="benign") == 32
    assert metrics.counter("net.hosts_built", pool="malicious") == 64
    assert metrics.counter_total("net.hosts_built") == 96


# -- the pool path ------------------------------------------------------------------

def test_an_address_waiting_to_be_built_cannot_be_registered_again():
    _, network = make_network()
    network.add_pool(["10.0.0.1"], lambda address: NTPServer(network, address), pool="t")
    with pytest.raises(NetworkError):
        NTPServer(network, "10.0.0.1")
    with pytest.raises(NetworkError):
        network.add_pool(["10.0.0.1"], lambda address: NTPServer(network, address),
                         pool="t")
    NTPServer(network, "10.0.0.2")
    with pytest.raises(NetworkError):
        network.add_pool(["10.0.0.2"], lambda address: NTPServer(network, address),
                         pool="t")


def test_a_host_is_built_once_on_its_first_packet():
    simulator, network = make_network()
    built = []

    def build(address):
        built.append(address)
        return NTPServer(network, address)

    network.add_pool(["10.0.0.1", "10.0.0.2"], build, pool="t")
    client = QuerierHost(network, "192.0.2.100")
    assert built == []
    client.query("10.0.0.1")
    client.query("10.0.0.1")
    simulator.run(until=5.0)
    assert built == ["10.0.0.1"]
    assert len(client.samples) == 2
    assert all(sample is not None for sample in client.samples)


def test_a_bgp_diversion_to_an_unbuilt_address_builds_it():
    simulator, network = make_network()
    network.add_pool(["198.51.100.1"], lambda address: NTPServer(network, address),
                     pool="t")
    network.routing_table.announce("10.0.0.0/24", "198.51.100.1")
    client = QuerierHost(network, "192.0.2.100")
    network.send_datagram(UDPDatagram(client.address, "10.0.0.7", 40000, 123, b"\x00"))
    simulator.run(until=1.0)
    diverted = network.host_for("10.0.0.7")
    assert isinstance(diverted, NTPServer) and diverted.address == "198.51.100.1"
    # The one-byte payload reached the diverted server (and did not decode).
    assert count(simulator, "net.datagrams_delivered") == 1
    assert count(simulator, "ntp.malformed", site="server") == 1


def test_a_time_shift_set_before_the_first_packet_is_served():
    simulator, network = make_network()
    attacker = build_attacker_infrastructure(network, server_count=3)
    client = QuerierHost(network, "192.0.2.100")
    client.query(attacker.ntp_addresses[0])
    simulator.run(until=5.0)
    attacker.set_time_shift(600.0)
    for address in attacker.ntp_addresses:
        client.query(address)
    simulator.run(until=10.0)
    offsets = [sample.offset for sample in client.samples]
    assert offsets[0] == pytest.approx(0.0, abs=0.01)
    assert offsets[1:] == [pytest.approx(600.0, abs=0.01)] * 3


def test_a_server_built_late_reports_the_error_drawn_at_build_time():
    testbed = build_testbed(TestbedConfig(seed=3, benign_server_count=4,
                                          with_attacker=False))
    testbed.simulator.run(until=3600.0)
    for address, drawn in testbed.benign_clock_errors.items():
        server = testbed.network.host_for(address)
        # Clock readings are epoch-based: one ULP near 1.6e9 s is 2.4e-7 s.
        assert server.clock.error == pytest.approx(drawn, abs=1e-6)
