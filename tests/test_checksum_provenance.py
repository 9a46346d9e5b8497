"""Gate for checking the UDP checksum only where a spoofed byte landed.

:func:`~repro.netsim.fragmentation.fragment_datagram` is the one UDP
serialiser and writes the checksum into every datagram's header, so a
datagram whose bytes all come from unspoofed packets cannot fail it.
Reassembly therefore verifies only an unfragmented spoofed packet or a
datagram that first-wins spliced from a spoofed fragment.  The
differential runs the whole grid at seed 1 and checks every datagram that
skipped verification with the full check; the mutation cases flip one
byte of a spoofed packet and expect the checksum drop.
"""

from __future__ import annotations

from dataclasses import replace

from _counters import count, observed_simulator

from repro.experiments.matrix import DEFAULT_ATTACKS, run_defense_matrix
from repro.netsim import fragmentation
from repro.netsim.fragmentation import fragment_datagram
from repro.netsim.network import Host, Network
from repro.netsim.packets import UDPDatagram


def test_every_skipped_check_would_have_passed(monkeypatch):
    parse = fragmentation.parse_udp_wire
    checks = {"skipped": 0, "verified": 0, "failed": 0}

    def differential(src_ip, dst_ip, wire, verify=True):
        datagram, checksum_ok = parse(src_ip, dst_ip, wire, verify)
        if verify:
            checks["verified"] += 1
            checks["failed"] += not checksum_ok
        else:
            checks["skipped"] += 1
            assert parse(src_ip, dst_ip, wire) == (datagram, True), (src_ip, dst_ip)
        return datagram, checksum_ok

    monkeypatch.setattr(fragmentation, "parse_udp_wire", differential)
    run_defense_matrix(attacks=DEFAULT_ATTACKS, seeds=(1,), workers=1)
    # Every datagram a spoofed byte reached is still verified, and at seed 1
    # each of them fails: a compensating attacker is let through by its flag.
    assert checks == {"skipped": 2391, "verified": 21, "failed": 21}


class Inbox(Host):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.received = []

    def handle_datagram(self, datagram):
        self.received.append(datagram.payload)


def deliver(packets):
    simulator = observed_simulator(5)
    network = Network(simulator, latency=0.01)
    inbox = Inbox(network, "10.0.0.2")
    for packet in packets:
        network.inject(packet)
    simulator.run()
    return simulator, inbox.received


def flipped(packet, index):
    payload = bytearray(packet.payload)
    payload[index] ^= 0x01
    return replace(packet, payload=bytes(payload), spoofed=True)


def test_a_spoofed_unfragmented_packet_with_a_flipped_byte_is_dropped():
    datagram = UDPDatagram("10.0.0.1", "10.0.0.2", 53, 4000, b"genuine answer bytes")
    [packet] = fragment_datagram(datagram, ip_id=7, mtu=1500)
    simulator, received = deliver([replace(packet, spoofed=True)])
    assert received == [datagram.payload]  # spoofed but intact: verified, kept
    simulator, received = deliver([flipped(packet, 12)])
    assert received == []
    assert count(simulator, "net.datagrams_dropped", reason="checksum") == 1
    assert count(simulator, "net.datagrams_delivered") == 0


def test_a_planted_fragment_with_a_flipped_byte_fails_the_spliced_datagram():
    datagram = UDPDatagram("10.0.0.1", "10.0.0.2", 53, 4000, bytes(range(256)) * 4)
    head, *tail = fragment_datagram(datagram, ip_id=9, mtu=548)
    simulator, received = deliver([flipped(tail[0], 3), head, *tail])
    assert received == []
    assert count(simulator, "net.datagrams_dropped", reason="checksum") == 1
