"""Unit tests for the network (host registration, delivery, MTU, taps) and BGP."""

from __future__ import annotations

import pytest
from _counters import count, observed_simulator

from repro.faults import FaultInjector, FaultPlan, LatencyRamp, LinkLoss
from repro.netsim.bgp import RoutingTable
from repro.netsim.network import Host, Network, NetworkError
from repro.netsim.packets import IPPacket, UDPDatagram


class RecordingHost(Host):
    """Collects every datagram it receives."""

    def __init__(self, network, address, **kwargs):
        super().__init__(network, address, **kwargs)
        self.inbox = []

    def handle_datagram(self, datagram):
        self.inbox.append(datagram)


def make_network(latency=0.01):
    simulator = observed_simulator(99)
    network = Network(simulator, latency=latency)
    return simulator, network


def test_duplicate_registration_rejected():
    _, network = make_network()
    RecordingHost(network, "10.0.0.1")
    with pytest.raises(NetworkError):
        RecordingHost(network, "10.0.0.1")


def test_datagram_delivered_after_latency():
    simulator, network = make_network(latency=0.5)
    RecordingHost(network, "10.0.0.1")
    receiver = RecordingHost(network, "10.0.0.2")
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, b"hello"))
    simulator.run(until=0.4)
    assert receiver.inbox == []
    simulator.run(until=0.6)
    assert len(receiver.inbox) == 1
    assert receiver.inbox[0].payload == b"hello"


def test_datagram_to_unknown_destination_dropped():
    simulator, network = make_network()
    RecordingHost(network, "10.0.0.1")
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.99", 1111, 53, b"x"))
    simulator.run()
    assert count(simulator, "net.packets_dropped") == 1


def test_loss_rate_drops_packets():
    simulator, network = make_network()
    a = RecordingHost(network, "10.0.0.1")
    b = RecordingHost(network, "10.0.0.2")
    # A link-loss event with no endpoints matches every link.
    FaultInjector(network, FaultPlan(events=(
        LinkLoss(start=0.0, end=100.0, loss_rate=1.0),
    ))).arm()
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, b"x"))
    network.send_datagram(UDPDatagram("10.0.0.2", "10.0.0.1", 53, 1111, b"y"))
    simulator.run()
    assert a.inbox == [] and b.inbox == []
    assert count(simulator, "net.packets_dropped", reason="loss") == 2


def test_low_path_mtu_causes_fragmentation_and_reassembly():
    simulator, network = make_network()
    RecordingHost(network, "10.0.0.1")
    receiver = RecordingHost(network, "10.0.0.2")
    network.set_path_mtu("10.0.0.1", 548)
    payload = bytes(range(256)) * 5  # 1280 bytes
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, payload))
    simulator.run()
    assert count(simulator, "net.packets_sent") >= 2  # fragmented on the wire
    assert len(receiver.inbox) == 1   # but reassembled at the host
    assert receiver.inbox[0].payload == payload


def test_checksum_validated_after_reassembly():
    """A datagram whose spliced payload breaks the checksum is dropped."""
    simulator, network = make_network()
    receiver = RecordingHost(network, "10.0.0.2")
    # Hand-build two fragments whose combined payload does not match the
    # UDP checksum carried in the header bytes of the first fragment.
    good = UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, b"A" * 1200)
    from repro.netsim.fragmentation import fragment_datagram

    fragments = fragment_datagram(good, ip_id=9, mtu=548)
    forged_tail = IPPacket(
        src_ip=fragments[1].src_ip,
        dst_ip=fragments[1].dst_ip,
        ip_id=fragments[1].ip_id,
        payload=bytes(b ^ 0xFF for b in fragments[1].payload),
        fragment_offset=fragments[1].fragment_offset,
        more_fragments=fragments[1].more_fragments,
        spoofed=True,
    )
    network.inject(forged_tail)
    for fragment in fragments:
        network.inject(fragment)
    simulator.run()
    assert receiver.inbox == []  # checksum mismatch, dropped
    assert count(simulator, "net.datagrams_dropped", reason="checksum") == 1
    assert count(simulator, "net.datagrams_delivered") == 0


def test_tap_sees_all_packets():
    simulator, network = make_network()
    RecordingHost(network, "10.0.0.1")
    RecordingHost(network, "10.0.0.2")
    seen = []
    network.add_tap(lambda packet, now: seen.append(packet))
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, b"x"))
    simulator.run()
    assert len(seen) == 1


def test_inject_spoofed_packet_reaches_destination():
    simulator, network = make_network()
    receiver = RecordingHost(network, "10.0.0.2")
    # inject raw wire bytes: build via fragment_datagram to get UDP header
    from repro.netsim.fragmentation import fragment_datagram

    [wire_packet] = fragment_datagram(
        UDPDatagram("10.0.0.99", "10.0.0.2", 5, 6, b"spoof"), ip_id=7, mtu=1500)
    network.inject(wire_packet)
    simulator.run()
    assert len(receiver.inbox) == 1
    assert count(simulator, "net.packets_injected") == 1


def test_ip_id_counter_is_sequential_per_source():
    _, network = make_network()
    first = network.next_ip_id("10.0.0.1")
    second = network.next_ip_id("10.0.0.1")
    other = network.next_ip_id("10.0.0.2")
    assert second == first + 1
    assert other == first  # independent counter per source


def test_ip_id_counter_wraps_without_zero():
    _, network = make_network()
    network._next_ip_id["10.0.0.1"] = 0xFFFF
    value = network.next_ip_id("10.0.0.1")
    assert value == 0xFFFF
    assert network.next_ip_id("10.0.0.1") == 1  # wrapped past zero


def test_latency_ramp_delays_one_direction_only():
    simulator, network = make_network(latency=0.01)
    a = RecordingHost(network, "10.0.0.1")
    b = RecordingHost(network, "10.0.0.2")
    FaultInjector(network, FaultPlan(events=(
        LatencyRamp(start=0.0, end=100.0, extra_latency=2.0,
                    src="10.0.0.1", dst="10.0.0.2"),
    ))).arm()
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, b"x"))
    network.send_datagram(UDPDatagram("10.0.0.2", "10.0.0.1", 53, 1111, b"y"))
    simulator.run(until=1.0)
    assert b.inbox == []
    assert len(a.inbox) == 1          # the reverse direction keeps 0.01 s
    simulator.run(until=2.5)
    assert len(b.inbox) == 1


def test_path_mtu_is_per_source_and_fragments_one_direction():
    simulator, network = make_network()
    a = RecordingHost(network, "10.0.0.1")
    b = RecordingHost(network, "10.0.0.2")
    network.set_path_mtu("10.0.0.1", 548)
    payload = b"Z" * 1200
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, payload))
    simulator.run()
    fragmented_count = count(simulator, "net.packets_sent")
    assert fragmented_count >= 3          # constrained direction fragments
    network.send_datagram(UDPDatagram("10.0.0.2", "10.0.0.1", 53, 1111, payload))
    simulator.run()
    assert count(simulator, "net.packets_sent") == fragmented_count + 1  # reverse path does not
    assert len(a.inbox) == 1 and len(b.inbox) == 1


def test_effective_mtu_follows_the_source_path_mtu():
    _, network = make_network()
    assert network.effective_mtu("10.0.0.1") == 1500
    network.set_path_mtu("10.0.0.1", 548)
    assert network.effective_mtu("10.0.0.1") == 548
    assert network.effective_mtu("10.0.0.2") == 1500
    network.set_path_mtu("10.0.0.1", 1200)   # a later setting replaces it
    assert network.effective_mtu("10.0.0.1") == 1200


def test_set_path_mtu_applies_per_source_not_per_destination():
    simulator, network = make_network()
    RecordingHost(network, "10.0.0.1")
    receiver = RecordingHost(network, "10.0.0.2")
    network.set_path_mtu("10.0.0.9", 548)  # someone else's path
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, b"Z" * 1200))
    simulator.run()
    assert count(simulator, "net.packets_sent") == 1  # our source is unconstrained
    assert len(receiver.inbox) == 1


def test_taps_run_in_attachment_order_for_every_packet():
    simulator, network = make_network()
    RecordingHost(network, "10.0.0.1")
    RecordingHost(network, "10.0.0.2")
    order = []
    network.add_tap(lambda packet, now: order.append("first"))
    network.add_tap(lambda packet, now: order.append("second"))
    network.set_path_mtu("10.0.0.1", 548)
    network.send_datagram(UDPDatagram("10.0.0.1", "10.0.0.2", 1111, 53, b"Z" * 1200))
    simulator.run()
    assert len(order) >= 4 and len(order) % 2 == 0
    assert order == ["first", "second"] * (len(order) // 2)


def test_taps_observe_only_ciphertext_for_secure_channel_traffic():
    from repro.netsim.transport import SecureChannel

    simulator, network = make_network()
    client = RecordingHost(network, "10.0.0.1")
    server = RecordingHost(network, "10.0.0.2")
    wire = bytearray()
    network.add_tap(lambda packet, now: wire.extend(packet.payload))

    def on_connection(conn):
        channel = SecureChannel.server(conn, simulator.rng,
                                       identity="pool.ntp.org", cert_key="zk")
        channel.on_data = lambda data, channel=channel: channel.send(b"CONFIDENTIAL-ANSWER")
    server.tcp.listen(853, on_connection)
    channel = SecureChannel.client(client.tcp.connect("10.0.0.2", 853),
                                   simulator.rng,
                                   expected_identity="pool.ntp.org",
                                   trust_anchor="zk")
    plaintexts = []
    channel.on_ready = lambda: channel.send(b"CONFIDENTIAL-QUERY")
    channel.on_data = plaintexts.append
    simulator.run(until=1.0)
    assert plaintexts == [b"CONFIDENTIAL-ANSWER"]   # endpoints see plaintext
    assert b"CONFIDENTIAL" not in bytes(wire)       # taps see only ciphertext


def test_tcp_segments_to_stackless_hosts_are_dropped_silently():
    from repro.netsim.packets import PROTO_TCP
    from repro.netsim.transport import FLAG_SYN, TCPSegment

    simulator, network = make_network()
    receiver = RecordingHost(network, "10.0.0.2")
    segment = TCPSegment(src_port=1234, dst_port=853, seq=1, ack=0, flags=FLAG_SYN)
    network.inject(IPPacket(src_ip="10.0.0.99", dst_ip="10.0.0.2", ip_id=1,
                            payload=segment.encode(), protocol=PROTO_TCP,
                            spoofed=True))
    simulator.run()
    assert receiver.inbox == []            # never reached the UDP path
    assert count(simulator, "net.datagrams_delivered") == 0
    assert count(simulator, "tcp.dropped", reason="no_stack") == 1
    assert receiver._tcp is None           # and no stack was conjured up


# -- BGP ---------------------------------------------------------------------

def test_routing_table_longest_prefix_wins():
    table = RoutingTable()
    table.announce("10.0.0.0/8", "10.0.0.1")
    table.announce("10.1.0.0/16", "10.1.0.1")
    assert table.lookup("10.1.2.3") == "10.1.0.1"
    assert table.lookup("10.2.2.3") == "10.0.0.1"


def test_routing_table_lookup_without_route_is_none():
    assert RoutingTable().lookup("8.8.8.8") is None


def test_hijack_announce_and_withdraw():
    table = RoutingTable()
    table.announce("203.0.113.0/24", "203.0.113.53")
    table.announce("203.0.113.53/32", "198.51.100.66")
    assert table.lookup("203.0.113.53") == "198.51.100.66"
    table.withdraw("203.0.113.53/32", "198.51.100.66")
    assert table.lookup("203.0.113.53") == "203.0.113.53"


def test_equal_length_tie_goes_to_most_recent_announcement():
    table = RoutingTable()
    table.announce("203.0.113.0/24", "first")
    table.announce("203.0.113.0/24", "second")
    assert table.lookup("203.0.113.9") == "second"


def test_network_routing_diverts_to_hijacker_host():
    simulator, network = make_network()
    legitimate = RecordingHost(network, "192.0.2.53")
    hijacker = RecordingHost(network, "198.51.100.66")
    RecordingHost(network, "192.0.2.1")
    network.routing_table.announce("192.0.2.53/32", hijacker.address)
    network.send_datagram(UDPDatagram("192.0.2.1", "192.0.2.53", 1111, 53, b"query"))
    simulator.run()
    assert len(hijacker.inbox) == 1
    assert legitimate.inbox == []
