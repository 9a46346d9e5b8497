"""Delivery-order gate for the network's shared delivery events.

Packets due at one instant, transmitted back to back, share one simulator
event that delivers them in transmit order.  Nothing a host sees may move:
the grid cases log every ``Host.deliver_packet`` call (simulated time,
receiving host, every packet field) for each ``DEFAULT_ATTACKS`` row under
the ``classic``, ``dot_strict`` and ``dot_opportunistic`` stacks at seed 1,
and compare the log's sha256 with literals recorded while every packet
still had its own event.  The unit cases pin the edges of the sharing
rule: fault-plan jitter, duplicates and loss; a tap that schedules an
event between two back-to-back injections; and a packet sent after the
event it could have joined has fired.
"""

from __future__ import annotations

import hashlib

import pytest
from _counters import count, observed_simulator

from repro.experiments.matrix import DEFAULT_ATTACKS, DEFAULT_STACKS, run_defense_matrix
from repro.faults import Duplicate, FaultInjector, FaultPlan, LinkLoss, ReorderJitter
from repro.netsim.network import Host, Network
from repro.netsim.fragmentation import fragment_datagram
from repro.netsim.packets import DEFAULT_MTU, IPPacket, UDPDatagram
from repro.netsim.simulator import Simulator

STACKS = tuple(stack for stack in DEFAULT_STACKS
               if stack.name in ("classic", "dot_strict", "dot_opportunistic"))

#: Row label -> (deliveries, sha256 of the delivery log), recorded with one
#: simulator event per delivered packet.
ROW_DELIVERIES = {
    "chronos_poisoning": (
        334, "59548712bc449cd09066b1c612d960481391bf5b97ebf9c9af16b5e21cf3c8e8"),
    "chronos_24h_hijack": (
        288, "00721e4de3f27303ac7c7154ca8fa007b4db02a5792507543b56f62c77fb4dd3"),
    "bgp_hijack": (
        6, "e0ffa95cfc8955ac5b6772021d2237fa071360e96fb6c74b26df0eb7474af83b"),
    "frag_poisoning": (
        69, "b536166e895fa62f2c32d0b77a6f0890b138c7c13c0d064206c7768f40818cf3"),
    "traditional_client": (
        134, "345f67184ab29e15f8a7944feb91fdf34ae7dc81236c777d8bcf47387f2ed561"),
    "downgrade": (
        1784, "67cd6b4da4794a3189cf5995df42d036b303cf47d56f9ff78594186c4cc7da29"),
}


def packet_fields(packet: IPPacket) -> tuple:
    return (packet.src_ip, packet.dst_ip, packet.ip_id, packet.protocol,
            packet.fragment_offset, packet.more_fragments, packet.ttl,
            packet.spoofed, packet.checksum_compensated, packet.payload)


class DeliveryLog:
    """Hashes every ``Host.deliver_packet`` call while installed."""

    def __init__(self, monkeypatch) -> None:
        self.digest = hashlib.sha256()
        self.count = 0
        deliver = Host.deliver_packet

        def logged(host: Host, packet: IPPacket) -> None:
            self.count += 1
            self.digest.update(repr((host.network.simulator.now, type(host).__name__,
                                     host.address, packet_fields(packet))).encode())
            deliver(host, packet)

        monkeypatch.setattr(Host, "deliver_packet", logged)

    def result(self) -> tuple[int, str]:
        return self.count, self.digest.hexdigest()


@pytest.mark.parametrize("attack", DEFAULT_ATTACKS, ids=lambda attack: attack.label)
def test_grid_rows_deliver_every_packet_at_its_instant_in_order(attack, monkeypatch):
    log = DeliveryLog(monkeypatch)
    run_defense_matrix(attacks=(attack,), stacks=STACKS, seeds=(1,), workers=1)
    assert log.result() == ROW_DELIVERIES[attack.label]


class Sink(Host):
    """Records (time, source, payload) for every datagram it receives."""

    def __init__(self, network: Network, address: str) -> None:
        super().__init__(network, address)
        self.received: list[tuple[float, str, bytes]] = []

    def handle_datagram(self, datagram) -> None:
        self.received.append((self.network.simulator.now, datagram.src_ip,
                              datagram.payload))


def raw_udp(src: str, dst: str, payload: bytes, ip_id: int = 1) -> IPPacket:
    """An unfragmented UDP packet with a valid checksum."""
    datagram = UDPDatagram(src_ip=src, dst_ip=dst, src_port=1000, dst_port=2000,
                           payload=payload)
    [packet] = fragment_datagram(datagram, ip_id=ip_id, mtu=DEFAULT_MTU)
    return packet


def sink_network(latency: float = 0.01, seed: int = 3) -> tuple[Simulator, Network, Sink]:
    simulator = observed_simulator(seed)
    network = Network(simulator, latency=latency)
    return simulator, network, Sink(network, "10.0.0.9")


def test_back_to_back_packets_share_one_event_and_keep_transmit_order():
    simulator, network, sink = sink_network()
    for index in range(5):
        network.inject(raw_udp("10.0.0.1", sink.address, bytes([index]), ip_id=index + 1))
    assert count(simulator, "net.packets_sent") == 5
    simulator.run()
    assert [payload for _, _, payload in sink.received] == [bytes([i]) for i in range(5)]
    assert {time for time, _, _ in sink.received} == {0.01}
    assert count(simulator, "sim.events_executed") == 1


def test_fault_jitter_duplicates_and_loss_keep_every_delivery_in_place():
    simulator, network, sink = sink_network()
    FaultInjector(network, FaultPlan(events=(
        ReorderJitter(start=0.0, end=10.0, jitter=0.004, src="10.0.0.1"),
        Duplicate(start=0.0, end=10.0, probability=0.5, delay=0.0, src="10.0.0.2"),
        Duplicate(start=0.0, end=10.0, probability=0.3, delay=0.002, src="10.0.0.3"),
        LinkLoss(start=0.0, end=10.0, loss_rate=0.3, src="10.0.0.3"),
    ))).arm()
    sources = ("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")
    burst = 0

    def send_burst() -> None:
        nonlocal burst
        for index in range(24):
            source = sources[(index // 3) % len(sources)]
            network.inject(raw_udp(source, sink.address, bytes([burst, index]),
                                   ip_id=burst * 24 + index + 1))
        burst += 1

    for at in (0.0, 0.5, 0.5, 1.0):
        simulator.schedule_at(at, send_burst)
    simulator.run()
    log = hashlib.sha256(repr(sink.received).encode()).hexdigest()
    # Recorded with one simulator event per delivered packet.
    assert (len(sink.received), count(simulator, "net.packets_sent"),
            count(simulator, "net.packets_dropped"),
            count(simulator, "net.packets_duplicated"), log) == (
        110, 96, 5, 19,
        "e219f6f28d6b0f94f50d600fc24c0c3ba0904c2b0b4f456eba5ab320f70147c5")
    times = [time for time, _, _ in sink.received]
    assert times == sorted(times)
    assert count(simulator, "sim.events_executed") < len(sink.received)


def test_an_event_scheduled_between_two_injections_keeps_its_place():
    simulator, network, sink = sink_network(latency=0.0)
    order: list[str] = []
    sink.handle_datagram = lambda datagram: order.append(datagram.payload.decode())

    def tap(packet: IPPacket, _now: float) -> None:
        if packet.ip_id == 2:
            simulator.schedule(0.0, lambda: order.append("tap"))

    network.add_tap(tap)
    network.inject(raw_udp("10.0.0.1", sink.address, b"first", ip_id=1))
    network.inject(raw_udp("10.0.0.1", sink.address, b"second", ip_id=2))
    network.inject(raw_udp("10.0.0.1", sink.address, b"third", ip_id=3))
    simulator.run()
    assert order == ["first", "tap", "second", "third"]
    # first | tap | second + third
    assert count(simulator, "sim.events_executed") == 3


def test_a_packet_sent_after_its_instant_fired_gets_a_new_event():
    simulator, network, sink = sink_network(latency=0.0)
    network.inject(raw_udp("10.0.0.1", sink.address, b"early", ip_id=1))
    simulator.run()
    assert simulator.now == 0.0 and len(sink.received) == 1
    network.inject(raw_udp("10.0.0.1", sink.address, b"late", ip_id=2))
    simulator.run()
    assert [payload for _, _, payload in sink.received] == [b"early", b"late"]
    assert count(simulator, "sim.events_executed") == 2
