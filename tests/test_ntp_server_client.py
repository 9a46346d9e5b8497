"""Tests for NTP servers (honest and malicious), the querier and the traditional client."""

from __future__ import annotations

import pytest
from _counters import count

from repro import obs
from repro.dns.nameserver import PoolNTPNameserver
from repro.dns.resolver import RecursiveResolver
from repro.faults import FaultInjector, FaultPlan, LinkLoss
from repro.netsim.network import Host, Network
from repro.netsim.packets import UDPDatagram
from repro.netsim.simulator import Simulator
from repro.ntp.client import TraditionalNTPClient
from repro.ntp.clock import SystemClock
from repro.ntp.packet import NTP_PORT
from repro.ntp.query import NTPQuerier
from repro.ntp.server import MaliciousNTPServer, NTPServer


class QuerierHost(Host):
    """Minimal host wrapping an NTPQuerier for direct exchange tests."""

    def __init__(self, network, address):
        super().__init__(network, address)
        self.clock = SystemClock(network.simulator)
        self.querier = NTPQuerier(self, self.clock)

    def handle_datagram(self, datagram):
        self.querier.handle_datagram(datagram)


def build(latency=0.02, seed=1):
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency=latency)
    return simulator, network


# -- single exchanges --------------------------------------------------------------------

def test_honest_server_sample_offset_near_zero():
    simulator, network = build()
    server = NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert len(samples) == 1
    assert samples[0] is not None
    assert abs(samples[0].offset) < 0.01
    assert samples[0].delay == pytest.approx(0.04, abs=0.01)
    assert samples[0].server == server.address


def test_unspoken_modes_are_dropped_inside_the_simulator():
    with obs.capture(trace=False) as observed:
        simulator, network = build()
    server = NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    # Mode 0 (all zeros), 6 (control) and 7 (private) to both ends.
    for first_byte in (0x00, 0x26, 0x27):
        payload = bytes([first_byte]) + bytes(47)
        network.send_datagram(UDPDatagram("198.51.100.9", server.address,
                                          40000, NTP_PORT, payload))
        network.send_datagram(UDPDatagram("198.51.100.9", client.address,
                                          NTP_PORT, 40000, payload))
    simulator.run(until=5.0)
    assert count(observed, "ntp.requests_received") == 1
    assert len(samples) == 1 and samples[0] is not None


def test_undecodable_datagrams_are_dropped_and_counted():
    with obs.capture() as observed:
        simulator, network = build()
        server = NTPServer(network, "10.0.0.1")
        client = QuerierHost(network, "192.0.2.100")
        samples = []
        client.querier.query(server.address, samples.append)
        garbage = b"\x23" * 47  # one byte short of an NTP header
        network.send_datagram(UDPDatagram("198.51.100.9", server.address,
                                          40000, NTP_PORT, garbage))
        network.send_datagram(UDPDatagram("198.51.100.9", client.address,
                                          NTP_PORT, 40000, garbage))
        simulator.run(until=5.0)
        snapshot = observed.metrics.snapshot()
    assert snapshot.counter("ntp.requests_received") == 1
    assert len(samples) == 1 and samples[0] is not None
    for site in ("server", "client"):
        assert snapshot.counter("ntp.malformed", site=site) == 1
    assert snapshot.counter_total("ntp.malformed") == 2


def test_server_with_clock_error_reports_that_offset():
    simulator, network = build()
    server = NTPServer(network, "10.0.0.1", clock_error=0.25)
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert samples[0].offset == pytest.approx(0.25, abs=0.01)


def test_malicious_server_shifts_offset():
    simulator, network = build()
    server = MaliciousNTPServer(network, "198.51.100.1", time_shift=600.0)
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert samples[0].offset == pytest.approx(600.0, abs=0.01)


def test_query_to_dead_server_times_out_with_none():
    with obs.capture(trace=False) as observed:
        simulator, network = build()
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query("10.9.9.9", samples.append)
    simulator.run(until=10.0)
    assert samples == [None]
    assert count(observed, "ntp.query_timeouts") == 1


def test_client_clock_error_reflected_in_measured_offset():
    """A client whose clock runs 1 s fast sees roughly -1 s offsets."""
    simulator, network = build()
    NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    client.clock.adjust(1.0)
    samples = []
    client.querier.query("10.0.0.1", samples.append)
    simulator.run(until=5.0)
    assert samples[0].offset == pytest.approx(-1.0, abs=0.01)


def test_lossy_server_leads_to_timeout():
    simulator, network = build()
    NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    # Every reply is lost on its way back; the request itself arrives.
    FaultInjector(network, FaultPlan(events=(
        LinkLoss(start=0.0, end=100.0, loss_rate=1.0,
                 src="10.0.0.1", dst="192.0.2.100"),
    ))).arm()
    samples = []
    client.querier.query("10.0.0.1", samples.append)
    simulator.run(until=10.0)
    assert samples == [None]


def test_server_counts_requests_and_responses():
    with obs.capture(trace=False) as observed:
        simulator, network = build()
    server = NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    for _ in range(3):
        client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert count(observed, "ntp.requests_received") == 3
    # Every request was answered: three replies became samples.
    assert count(observed, "ntp.samples_collected") == 3
    assert len(samples) == 3 and None not in samples


# -- the traditional client end to end -----------------------------------------------------

def build_full_world(client_offset=0.0, server_error=0.0, seed=1):
    simulator, network = build(seed=seed)
    servers = [NTPServer(network, f"10.0.0.{i + 1}", clock_error=server_error)
               for i in range(8)]
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[s.address for s in servers])
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address})
    client = TraditionalNTPClient(network, "192.0.2.100", resolver_address=resolver.address,
                                  poll_interval=64.0,
                                  clock=SystemClock(simulator, offset=client_offset))
    return simulator, network, client


def test_traditional_client_uses_at_most_four_servers():
    simulator, _, client = build_full_world()
    client.start()
    simulator.run(until=10.0)
    assert len(client.servers) == 4


def test_traditional_client_corrects_initial_offset():
    simulator, _, client = build_full_world(client_offset=0.5)
    client.start()
    simulator.run(until=300.0)
    assert abs(client.clock.error) < 0.05
    assert len(client.poll_history) >= 2
    assert client.poll_history[0].applied_offset == pytest.approx(-0.5, abs=0.05)


def test_traditional_client_stable_when_already_correct():
    simulator, _, client = build_full_world(client_offset=0.0)
    client.start()
    simulator.run(until=300.0)
    assert abs(client.clock.error) < 0.01


def test_traditional_client_polls_periodically():
    simulator, _, client = build_full_world()
    client.start()
    simulator.run(until=64.0 * 4)
    assert len(client.poll_history) >= 3


def test_traditional_client_retries_failed_resolution():
    simulator, network = build()
    # resolver exists but has no route to any nameserver → lookups fail
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={})
    client = TraditionalNTPClient(network, "192.0.2.100", resolver_address=resolver.address)
    lookups = []  # the stub's queries to the resolver, as seen on the wire
    network.add_tap(lambda packet, now: packet.src_ip == client.address
                    and lookups.append(now))
    client.start()
    simulator.run(until=10.0)
    assert client.servers == []
    assert len(lookups) >= 1
    # a retry gets scheduled (30 s backoff)
    simulator.run(until=50.0)
    assert len(lookups) >= 2
