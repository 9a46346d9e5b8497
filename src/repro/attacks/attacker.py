"""Attacker models and shared attacker infrastructure.

The paper's attacker is *off-path*: it cannot observe traffic between the
victim resolver, the pool.ntp.org nameservers and the Chronos client, but it
can

* send packets with spoofed source addresses (fragment injection),
* announce BGP prefixes it does not own (prefix hijack), and
* operate its own infrastructure — NTP servers serving shifted time and a
  nameserver that answers hijacked DNS queries with a flood of those servers'
  addresses carrying a very large TTL.

:class:`AttackerInfrastructure` builds that infrastructure inside the
simulation and crafts the malicious DNS answer described in §IV: as many A
records as fit in a single unfragmented response (89 for the pool.ntp.org
question) with a TTL longer than the 24-hour pool-generation window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from ..dns.message import MAX_UNFRAGMENTED_UDP_PAYLOAD, DNSMessage, max_a_records_for_payload
from ..dns.nameserver import DEFAULT_ZONE, DNS_PORT, AuthoritativeNameserver
from ..dns.records import SECONDS_PER_DAY, RecordType, ResourceRecord, a_record
from ..dns.resolver import RecursiveResolver
from ..dns.wire import WireFormatError, note_malformed
from ..netsim.addresses import AddressAllocator
from ..netsim.network import Network
from ..netsim.packets import UDPDatagram
from ..ntp.server import MaliciousNTPServer

#: TTL the paper's attacker uses: anything comfortably above 24 hours keeps
#: every later pool-generation query inside the cache.
DEFAULT_MALICIOUS_TTL = 2 * SECONDS_PER_DAY
#: The block the attacker's malicious NTP servers are allocated from.
ATTACKER_ADDRESS_BLOCK = "198.51.100.0/24"


class ImpersonatingNameserver(AuthoritativeNameserver):
    """An attacker nameserver that answers with a forged source address.

    After a BGP hijack the attacker receives queries addressed to the real
    pool.ntp.org nameserver; it replies with its malicious record set while
    spoofing the legitimate nameserver's address as the UDP source, so the
    victim resolver's source-address check passes.
    """

    def __init__(self, network: Network, address: str, impersonated_address: str,
                 attacker: AttackerInfrastructure, name: Optional[str] = None) -> None:
        super().__init__(network, address, zone={}, name=name or f"attacker-ns-{address}")
        self.impersonated_address = impersonated_address
        self.attacker = attacker
        self.hijacked_queries_answered = 0

    def handle_datagram(self, datagram: UDPDatagram) -> None:
        if datagram.dst_port != DNS_PORT:
            return
        try:
            query = DNSMessage.decode(datagram.payload)
        except WireFormatError:
            note_malformed(self.network.simulator.obs, "attacker")
            return
        if query.is_response or query.question.qtype != RecordType.A:
            return
        answers = self.attacker.malicious_answer_records(query.question.name)
        response = query.make_response(answers)
        self.hijacked_queries_answered += 1
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("attack.hijacked_queries_answered").inc()
            obs.trace.instant("attack.hijack_answer", category="attack",
                              impersonating=self.impersonated_address,
                              victim=datagram.src_ip,
                              records=len(answers))
        # The one host that sends from an address it does not own.
        self.network.send_datagram(UDPDatagram(self.impersonated_address, datagram.src_ip,
                                               DNS_PORT, datagram.src_port, response.encode()))


@dataclass
class AttackerInfrastructure:
    """The attacker's own servers inside the simulation.

    The malicious NTP servers are a pool on ``network``: each is built on its
    first packet, serving the infrastructure's ``time_shift`` of that moment.
    ``can_hijack_bgp=False`` models an attacker without BGP reach: its
    :class:`~repro.attacks.bgp_hijack.BGPHijackPoisoner` refuses to announce.
    """

    network: Network
    #: One malicious NTP server per injected A record.
    ntp_addresses: tuple[str, ...] = ()
    malicious_ttl: int = DEFAULT_MALICIOUS_TTL
    can_hijack_bgp: bool = True
    #: The shift every malicious server serves, built or not.
    time_shift: float = 0.0
    _built: list[MaliciousNTPServer] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        self.network.add_pool(self.ntp_addresses, self._build_server, pool="malicious")

    def _build_server(self, address: str) -> MaliciousNTPServer:
        server = MaliciousNTPServer(self.network, address, time_shift=self.time_shift)
        self._built.append(server)
        return server

    def set_time_shift(self, shift_seconds: float) -> None:
        """Make every attacker NTP server serve time shifted by ``shift_seconds``."""
        self.time_shift = shift_seconds
        for server in self._built:
            server.time_shift = shift_seconds

    def malicious_answer_records(self, qname: str) -> tuple[ResourceRecord, ...]:
        """The A records the attacker injects for ``qname``."""
        return _answer_records(qname, self.ntp_addresses, self.malicious_ttl)

    def cached_records(self, resolver: RecursiveResolver, zone: str) -> tuple[int, int]:
        """(A records ``resolver`` caches for ``zone``, how many are the attacker's)."""
        entry = resolver.cache.peek(zone, RecordType.A)
        records = entry.records if entry is not None else ()
        malicious = set(self.ntp_addresses)
        return len(records), sum(record.rdata in malicious for record in records)


@lru_cache(maxsize=64)
def _answer_records(qname: str, addresses: tuple[str, ...],
                    ttl: int) -> tuple[ResourceRecord, ...]:
    """One A record per address: built once per answer, not once per world."""
    return tuple(a_record(qname, address, ttl) for address in addresses)


def build_attacker_infrastructure(network: Network, qname: str = DEFAULT_ZONE,
                                  server_count: Optional[int] = None,
                                  time_shift: float = 0.0,
                                  malicious_ttl: int = DEFAULT_MALICIOUS_TTL,
                                  ) -> AttackerInfrastructure:
    """Register the attacker's NTP servers (and nothing else yet).

    ``server_count`` defaults to the maximum number of A records that fit in
    a single unfragmented DNS response for ``qname`` — the 89 of §IV.
    """
    if server_count is None:
        server_count = max_a_records_for_payload(qname, MAX_UNFRAGMENTED_UDP_PAYLOAD)
    return AttackerInfrastructure(
        network=network,
        ntp_addresses=tuple(AddressAllocator(ATTACKER_ADDRESS_BLOCK).allocate_many(server_count)),
        malicious_ttl=malicious_ttl,
        time_shift=time_shift,
    )
