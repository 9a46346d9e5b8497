"""Probabilistic link loss: determinism, accounting, and fragmentation.

Loss comes from one place, a :class:`~repro.faults.LinkLoss` event of an
armed fault plan; these tests pin its contract with the network — every
drop draws from the simulator's RNG (so loss sequences are a pure function
of the seed), every drop is counted as ``net.packets_dropped{reason=loss}``,
and loss interacts with IP fragmentation per *packet*, so one lost fragment
silently costs the whole datagram.
"""

from __future__ import annotations

from _counters import count, observed_simulator

from repro.faults import FaultInjector, FaultPlan, LinkLoss
from repro.netsim.network import Host, Network
from repro.netsim.packets import UDPDatagram


class Sink(Host):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.payloads = []

    def handle_datagram(self, datagram):
        self.payloads.append(datagram.payload)


def build_net(seed=1, loss_rate=None):
    """Two hosts; ``loss_rate`` arms loss on the 10.0.0.1 -> 10.0.0.2 link."""
    sim = observed_simulator(seed)
    net = Network(sim, latency=0.01)
    a, b = Sink(net, "10.0.0.1"), Sink(net, "10.0.0.2")
    if loss_rate is not None:
        FaultInjector(net, FaultPlan(events=(
            LinkLoss(start=0.0, end=100.0, loss_rate=loss_rate,
                     src="10.0.0.1", dst="10.0.0.2"),
        ))).arm()
    return sim, net, a, b


def burst(net, count, src="10.0.0.1", dst="10.0.0.2", size=1):
    for index in range(count):
        net.send_datagram(UDPDatagram(src_ip=src, dst_ip=dst, src_port=1000,
                                      dst_port=2000,
                                      payload=bytes([index % 256]) * size))


def survivors(seed, loss_rate, count=40):
    sim, net, a, b = build_net(seed=seed, loss_rate=loss_rate)
    burst(net, count)
    sim.run()
    return [payload[0] for payload in b.payloads], net


# -- accounting ---------------------------------------------------------------

def test_lossless_link_delivers_everything_and_draws_no_rng():
    sim, net, a, b = build_net(seed=3)
    state = sim.rng.getstate()
    burst(net, 20)
    sim.run()
    assert len(b.payloads) == 20
    assert count(net.simulator, "net.packets_dropped") == 0
    # Delivery without a fault plan consumes no randomness: adding benign
    # traffic to a scenario cannot shift any later draw.
    assert sim.rng.getstate() == state


def test_full_loss_drops_every_packet_and_counts_them():
    delivered, net = survivors(seed=1, loss_rate=1.0, count=10)
    assert delivered == []
    assert count(net.simulator, "net.packets_sent") == 10
    assert count(net.simulator, "net.packets_dropped", reason="loss") == 10


def test_partial_loss_accounting_is_exact():
    delivered, net = survivors(seed=7, loss_rate=0.4)
    assert count(net.simulator, "net.packets_sent") == 40
    assert count(net.simulator, "net.packets_dropped", reason="loss") == 40 - len(delivered)
    assert count(net.simulator, "net.packets_dropped") == 40 - len(delivered)
    assert 0 < len(delivered) < 40


# -- determinism --------------------------------------------------------------

def test_drop_sequence_is_a_pure_function_of_the_seed():
    first, _ = survivors(seed=11, loss_rate=0.5)
    again, _ = survivors(seed=11, loss_rate=0.5)
    assert first == again
    other, _ = survivors(seed=12, loss_rate=0.5)
    assert first != other


def test_loss_is_directional():
    sim, net, a, b = build_net(seed=2, loss_rate=1.0)
    burst(net, 5)                                    # a -> b: lossy
    burst(net, 5, src="10.0.0.2", dst="10.0.0.1")    # b -> a: clean
    sim.run()
    assert b.payloads == []
    assert len(a.payloads) == 5
    assert count(net.simulator, "net.packets_dropped", reason="loss") == 5


# -- loss x fragmentation -----------------------------------------------------
# A 1200-byte payload over a 256-byte path MTU fragments into multiple
# packets; loss is drawn per packet, so the datagram only survives when
# every one of its fragments does.

def frag_burst(seed, loss_rate, count=10):
    sim, net, a, b = build_net(seed=seed, loss_rate=loss_rate)
    net.set_path_mtu("10.0.0.1", 256)
    burst(net, count, size=1200)
    sim.run()
    return [payload[0] for payload in b.payloads], net, b


def test_lossless_fragment_burst_reassembles_every_datagram():
    delivered, net, b = frag_burst(seed=1, loss_rate=0.0)
    assert delivered == list(range(10))
    assert count(net.simulator, "net.datagrams_delivered") == 10
    # Each datagram really did fragment (several packets per datagram).
    sent = count(net.simulator, "net.packets_sent")
    assert sent % 10 == 0
    assert sent // 10 > 1


def test_one_lost_fragment_loses_the_whole_datagram():
    delivered, net, b = frag_burst(seed=5, loss_rate=0.2)
    sent = count(net.simulator, "net.packets_sent")
    dropped = count(net.simulator, "net.packets_dropped", reason="loss")
    fragments_per_datagram = sent // 10
    # Dropped fragments exceed fully-lost datagrams: some datagrams lost
    # only part of themselves, yet still never reassembled.
    lost_datagrams = 10 - len(delivered)
    assert 0 < dropped < sent
    assert lost_datagrams * fragments_per_datagram >= dropped > 0
    assert count(net.simulator, "net.datagrams_delivered") == len(delivered)
    # Survivors arrive intact and in order despite the carnage around them.
    assert delivered == sorted(delivered)


def test_fragment_loss_pattern_is_seed_stable():
    first, net_a, _ = frag_burst(seed=9, loss_rate=0.3)
    again, net_b, _ = frag_burst(seed=9, loss_rate=0.3)
    assert first == again
    assert (count(net_a.simulator, "net.packets_dropped")
            == count(net_b.simulator, "net.packets_dropped"))
    other, _, _ = frag_burst(seed=10, loss_rate=0.3)
    assert first != other
