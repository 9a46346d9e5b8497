"""Declarative testbed construction shared by every attack scenario.

Each of the paper's attack scenarios needs the same world: a deterministic
simulator, a network, the benign pool.ntp.org infrastructure (volunteer NTP
servers behind an authoritative nameserver), a recursive resolver, and — for
the attack variants — the attacker's infrastructure (malicious NTP servers
plus the BGP-hijack machinery).  Before this module existed every scenario
hand-built that world; now the world is described by a
:class:`TestbedConfig` and materialised by :class:`TestbedBuilder`, and a
scenario only adds its victim on top.

Randomness discipline: the only random draws during construction are the
benign servers' clock errors, taken from the simulator-owned
``random.Random`` — so a testbed is a pure function of its config, and two
builds from the same config are identical event-for-event.  The errors are
drawn now, in address order; every NTP server (benign and malicious) is a
pool host, built on its first packet with its error already drawn
(:meth:`~repro.netsim.network.Network.add_pool`), and building one neither
draws nor schedules anything.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Optional

from ..defenses.stack import DefenseSpec, DefenseStack
from ..dns.nameserver import (
    DEFAULT_ZONE,
    POOL_NTP_ORG_TTL,
    POOL_RECORDS_PER_RESPONSE,
    PoolNTPNameserver,
)
from ..dns.records import SECONDS_PER_DAY
from ..dns.resolver import RecursiveResolver
from ..netsim.addresses import AddressAllocator
from ..netsim.network import Network
from ..netsim.simulator import Simulator
from ..ntp.server import NTPServer

if TYPE_CHECKING:  # imported lazily in build() to avoid a package cycle
    from ..attacks.attacker import AttackerInfrastructure
    from ..attacks.bgp_hijack import BGPHijackPoisoner
    from ..faults import FaultInjector

#: One-way latency of every link in the world, in seconds.
LATENCY = 0.01

#: Default fully-wired MTU (no fragmentation anywhere on the path).
DEFAULT_MTU = 1500

#: Standard deviation, in seconds, of a benign server's clock error.
BENIGN_CLOCK_ERROR_STDDEV = 0.005


@dataclass
class TestbedConfig:
    """Complete declarative description of a scenario's world.

    The defaults describe the Figure-1 topology; scenarios override only the
    knobs they care about (address blocks, population sizes, policies).
    """

    __test__ = False  # "Test*" name; keep pytest from collecting it

    seed: int = 1
    start_time: float = 0.0

    # -- benign pool.ntp.org infrastructure ---------------------------------
    benign_server_count: int = 200
    benign_address_block: str = "10.10.0.0/16"
    records_per_response: int = POOL_RECORDS_PER_RESPONSE
    benign_ttl: int = POOL_NTP_ORG_TTL
    nameserver_address: str = "192.0.2.53"
    #: Smallest MTU the nameserver fragments responses to (< 1500 also sets
    #: the path MTU, enabling the fragmentation poisoning vector).
    nameserver_min_mtu: int = DEFAULT_MTU
    #: Largest UDP response payload the nameserver sends; anything bigger
    #: goes out truncated with TC=1 (``None`` = no limit, the legacy
    #: behaviour every fragmentation experiment relies on).
    nameserver_udp_payload_limit: Optional[int] = None
    #: Stream transports the nameserver serves ("tcp", "dot", "doh");
    #: normally provisioned by the ``encrypted_transport`` defense.
    nameserver_transports: tuple[str, ...] = ()
    #: Certificate key for the encrypted transports (the zone's TLS
    #: identity); provisioned by the ``encrypted_transport`` defense.
    transport_cert_key: Optional[str] = None
    #: Issue session-resumption tickets and accept 0-RTT first flights on
    #: the secure listeners; provisioned by the ``encrypted_transport``
    #: defense when its ``zero_rtt`` knob is on.
    nameserver_session_resumption: bool = False

    # -- victim-side resolver ------------------------------------------------
    resolver_address: str = "192.0.2.1"

    # -- defenses --------------------------------------------------------------
    #: Extra countermeasures, by registry name and/or instance; composed (in
    #: order) on top of the resolver's classic defenses.  The stack's
    #: ``configure_testbed`` hooks may rewrite other fields of this config
    #: (on the builder's private copy) before the world is materialised.
    defenses: DefenseSpec = ()
    #: Zone-signing key; ``None`` leaves the zone unsigned.  Normally
    #: provisioned by the ``response_signing`` defense rather than by hand.
    zone_key: Optional[str] = None

    # -- fault injection -------------------------------------------------------
    #: Declarative fault plan (a :meth:`repro.faults.FaultPlan.to_spec`
    #: tuple of event dicts and/or event instances).  Address fields may use
    #: the ``@nameserver`` / ``@resolver`` aliases.  Empty — the default —
    #: builds no injector at all; the network stays pristine and the
    #: transmit path pays one attribute check.
    faults: tuple = ()

    # -- attacker infrastructure ---------------------------------------------
    with_attacker: bool = True
    #: Malicious NTP servers / injected A records (``None`` = the maximum
    #: that fits in one unfragmented response, i.e. the 89 of §IV).
    attacker_record_count: Optional[int] = None
    malicious_ttl: int = 2 * SECONDS_PER_DAY
    with_hijacker: bool = True
    attacker_nameserver_address: str = "198.51.100.253"


@dataclass
class Testbed:
    """The materialised world.  ``victim`` is whatever the scenario attached."""

    __test__ = False  # "Test*" name; keep pytest from collecting it

    config: TestbedConfig
    simulator: Simulator
    network: Network
    #: Benign server address -> its drawn clock error, in allocation order;
    #: ``network.host_for(address)`` returns (building) the server.
    benign_clock_errors: dict[str, float]
    nameserver: PoolNTPNameserver
    resolver: RecursiveResolver
    #: The configured defense stack (shared by the resolver and the victim's
    #: pool/NTP hooks).  Always present; empty when no defenses were asked.
    defenses: DefenseStack = field(default_factory=DefenseStack)
    #: The armed fault injector, when the config declared a fault plan
    #: (``testbed.faults.stats`` is the chaos ledger of the run).
    faults: Optional["FaultInjector"] = None
    attacker: Optional["AttackerInfrastructure"] = None
    hijacker: Optional["BGPHijackPoisoner"] = None
    victim: Any = None


#: Called with the partially-built testbed (simulator, network, benign
#: infrastructure and resolver ready; attacker not yet built) and returns the
#: victim host to attach.  Keeping the victim between resolver and attacker
#: preserves the construction order of the pre-refactor scenarios.
VictimFactory = Callable[[Testbed], Any]


class TestbedBuilder:
    """Materialises a :class:`TestbedConfig` into a runnable world."""

    __test__ = False  # "Test*" name; keep pytest from collecting it

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()

    def build(self, victim_factory: Optional[VictimFactory] = None) -> Testbed:
        # Imported here (not at module level) because the attacks package
        # imports this module for its own scenario construction.
        from ..attacks.attacker import build_attacker_infrastructure
        from ..attacks.bgp_hijack import BGPHijackPoisoner

        # The defense stack may rewrite config fields (PMTU floor, zone key);
        # work on a shallow copy so the caller's config object stays pristine
        # and reusable across builds.
        cfg = replace(self.config)
        stack = DefenseStack.from_spec(cfg.defenses)
        stack.configure_testbed(cfg)
        simulator = Simulator(seed=cfg.seed, start_time=cfg.start_time)
        network = Network(simulator, latency=LATENCY)
        fault_injector = None
        if cfg.faults:
            # Imported lazily: pristine worlds (the overwhelming default)
            # never touch the fault subsystem.
            from ..faults import FaultInjector, FaultPlan

            fault_injector = FaultInjector(
                network,
                FaultPlan.from_spec(cfg.faults),
                aliases={"@nameserver": cfg.nameserver_address,
                         "@resolver": cfg.resolver_address},
            ).arm()

        allocator = AddressAllocator(cfg.benign_address_block)
        benign_clock_errors = {
            allocator.allocate(): simulator.rng.gauss(0.0, BENIGN_CLOCK_ERROR_STDDEV)
            for _ in range(cfg.benign_server_count)
        }

        def build_benign(address: str) -> NTPServer:
            return NTPServer(network, address, clock_error=benign_clock_errors[address])

        network.add_pool(benign_clock_errors, build_benign, pool="benign")
        nameserver = PoolNTPNameserver(
            network,
            cfg.nameserver_address,
            zone_name=DEFAULT_ZONE,
            pool_servers=list(benign_clock_errors),
            records_per_response=cfg.records_per_response,
            ttl=cfg.benign_ttl,
            min_supported_mtu=cfg.nameserver_min_mtu,
            zone_key=cfg.zone_key,
            udp_payload_limit=cfg.nameserver_udp_payload_limit,
        )
        if cfg.nameserver_min_mtu < DEFAULT_MTU:
            network.set_path_mtu(nameserver.address, cfg.nameserver_min_mtu)
        if cfg.nameserver_transports:
            # Imported lazily: stream transports only exist in worlds that
            # asked for them (the encrypted_transport defense, TC fallback
            # experiments), keeping datagram-only builds untouched.
            from ..dns.transport import DNSServerTransport

            DNSServerTransport(
                nameserver,
                transports=cfg.nameserver_transports,
                cert_key=cfg.transport_cert_key,
                identity=DEFAULT_ZONE,
                session_resumption=cfg.nameserver_session_resumption,
            )
        resolver = RecursiveResolver(
            network,
            cfg.resolver_address,
            nameserver_map={DEFAULT_ZONE: nameserver.address},
            defenses=stack,
        )
        testbed = Testbed(
            config=cfg,
            simulator=simulator,
            network=network,
            benign_clock_errors=benign_clock_errors,
            nameserver=nameserver,
            resolver=resolver,
            defenses=stack,
            faults=fault_injector,
        )
        # Runtime attachment happens before the victim exists: defenses
        # capture world state (zone profile, keys), not victim state.
        stack.attach_testbed(testbed)
        if victim_factory is not None:
            testbed.victim = victim_factory(testbed)
        if cfg.with_attacker:
            testbed.attacker = build_attacker_infrastructure(
                network,
                qname=DEFAULT_ZONE,
                server_count=cfg.attacker_record_count,
                malicious_ttl=cfg.malicious_ttl,
            )
            if cfg.with_hijacker:
                testbed.hijacker = BGPHijackPoisoner(
                    network, testbed.attacker, target_nameserver=nameserver.address,
                    attacker_nameserver_address=cfg.attacker_nameserver_address)
        return testbed


def build_testbed(config: Optional[TestbedConfig] = None,
                  victim_factory: Optional[VictimFactory] = None) -> Testbed:
    """One-call convenience wrapper around :class:`TestbedBuilder`."""
    return TestbedBuilder(config).build(victim_factory)


_TESTBED_FIELDS = frozenset(spec.name for spec in fields(TestbedConfig))


def testbed_config(scenario_config: Any, **world: Any) -> TestbedConfig:
    """The :class:`TestbedConfig` of an attack scenario's config dataclass.

    Every field the scenario config shares by name with :class:`TestbedConfig`
    (seed, population sizes, attacker records, defenses, faults, ...) is
    copied over; ``world`` supplies the per-scenario knobs
    that are not config fields (address block, hijacker).
    Values are read with ``getattr``, not ``dataclasses.asdict``, which
    would deep-copy defense instances.
    """
    shared = {spec.name: getattr(scenario_config, spec.name)
              for spec in fields(scenario_config) if spec.name in _TESTBED_FIELDS}
    return TestbedConfig(**shared, **world)
