"""Fault-injection overhead and the chaos determinism gate.

Two properties keep the fault layer honest:

* **Zero-cost when unused** — the transmit path pays one attribute check
  when no injector is armed, and an armed-but-idle plan (every window in
  the future) costs only its event-boundary timers, not per-packet work.
* **Deterministic when used** — a faulted sweep is still a pure function of
  its seeds: the pinned chaos grid (both poisoning vectors faulted, plus a
  population shard) reproduces its digest run after run.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.pins import CHAOS_GRID_DIGEST, chaos_grid_digest
from repro.faults import FaultInjector, FaultPlan, LinkLoss
from repro.netsim.network import Host, Network
from repro.netsim.packets import UDPDatagram
from repro.netsim.simulator import Simulator

PACKETS = 3000


class _Sink(Host):
    handled = 0

    def handle_datagram(self, datagram):
        self.handled += 1


def _pump(plan_events) -> int:
    """Send a burst through a two-host network, optionally with a plan armed;
    returns how many datagrams the receiver handled."""
    simulator = Simulator(seed=1)
    network = Network(simulator, latency=0.001)
    _Sink(network, "10.0.0.1")
    sink = _Sink(network, "10.0.0.2")
    if plan_events is not None:
        FaultInjector(network, FaultPlan(events=plan_events)).arm()
    for index in range(PACKETS):
        network.send_datagram(UDPDatagram(
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1000,
            dst_port=2000, payload=bytes([index % 256])))
        simulator.run()
    return sink.handled


def test_transmit_overhead_of_an_idle_fault_plan(benchmark):
    import timeit

    bare = timeit.timeit(lambda: _pump(None), number=3)
    # Armed, but every window opens far beyond the burst: per-packet cost is
    # the injector's pass-through path, not fault evaluation.
    idle_plan = (LinkLoss(start=1e6, end=2e6, loss_rate=0.9),)
    idle = benchmark.pedantic(lambda: _pump(idle_plan), rounds=3, iterations=1)
    armed = timeit.timeit(lambda: _pump(idle_plan), number=3)
    assert idle == PACKETS
    emit("fault injection — idle-plan transmit overhead", [
        f"{PACKETS} datagrams, no injector:   {bare / 3:.4f}s per burst",
        f"{PACKETS} datagrams, idle plan:     {armed / 3:.4f}s per burst",
        f"overhead factor:                  {armed / bare:.2f}x",
    ])
    # Generous bound: the single-CPU CI box is noisy, but pass-through must
    # never degenerate into per-packet plan evaluation.
    assert armed < bare * 3


def test_faulted_sweep_digest_is_reproducible(benchmark):
    first = benchmark.pedantic(chaos_grid_digest, rounds=1, iterations=1)
    second = chaos_grid_digest()
    emit("fault injection — chaos grid determinism", [
        f"run 1: {first}",
        f"run 2: {second}",
        f"pin:   {CHAOS_GRID_DIGEST}",
    ])
    assert first == second == CHAOS_GRID_DIGEST
