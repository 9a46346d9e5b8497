"""Shared fixtures for the test suite.

Most tests build small, fully deterministic topologies: a simulator, a
network, a handful of NTP servers, a pool.ntp.org nameserver, a recursive
resolver and a victim client.  The fixtures here provide those pieces with
fixed seeds so every test is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.dns.nameserver import PoolNTPNameserver
from repro.dns.resolver import RecursiveResolver
from repro.netsim.addresses import AddressAllocator
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.ntp.server import NTPServer


@pytest.fixture
def pool_cpus(monkeypatch: pytest.MonkeyPatch) -> None:
    """Let a pooled-path test fork its pool on any host.

    The scheduler caps its pool at the usable CPUs; with eight of them seen,
    the worker counts the tests ask for (2 and 4) are never cut.
    """
    import repro.experiments.scheduler as scheduler_module

    monkeypatch.setattr(scheduler_module, "usable_cpus", lambda: 8)


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def network(simulator: Simulator) -> Network:
    """A network with a small fixed latency and no loss."""
    return Network(simulator, latency=0.01)


@dataclass
class SmallInternet:
    """A miniature benign Internet used by DNS/NTP integration tests."""

    simulator: Simulator
    network: Network
    ntp_servers: list[NTPServer]
    nameserver: PoolNTPNameserver
    resolver: RecursiveResolver
    zone: str = "pool.ntp.org"


@pytest.fixture
def small_internet(simulator: Simulator, network: Network) -> SmallInternet:
    """Twenty benign NTP servers, a pool nameserver and a resolver."""
    allocator = AddressAllocator("10.0.0.0/24")
    servers = [NTPServer(network, allocator.allocate()) for _ in range(20)]
    nameserver = PoolNTPNameserver(
        network,
        "192.0.2.53",
        zone_name="pool.ntp.org",
        pool_servers=[server.address for server in servers],
    )
    resolver = RecursiveResolver(
        network,
        "192.0.2.1",
        nameserver_map={"pool.ntp.org": nameserver.address},
    )
    return SmallInternet(
        simulator=simulator,
        network=network,
        ntp_servers=servers,
        nameserver=nameserver,
        resolver=resolver,
    )
