"""NTP servers: honest time sources and attacker-controlled ones.

An honest server replies with its own (approximately correct) clock.  A
malicious server replies with its clock plus a constant shift — the
behaviour the Chronos threat model calls a "corrupted server" and the
behaviour every address the attacker injects into the Chronos pool exhibits
once the time-shifting phase of the attack starts.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.network import Host, Network
from ..netsim.packets import UDPDatagram
from .clock import SystemClock
from .packet import NTP_PORT, LeapIndicator, NTPMode, NTPPacket, PacketFormatError, note_malformed

class NTPServer(Host):
    """An NTP server answering mode-3 requests from its local clock."""

    #: The stratum every reply reports, malicious servers' included.
    STRATUM = 2

    def __init__(self, network: Network, address: str, clock: Optional[SystemClock] = None,
                 name: Optional[str] = None, clock_error: float = 0.0) -> None:
        super().__init__(network, address, name=name or f"ntp-{address}")
        self.clock = clock or SystemClock(network.simulator, offset=clock_error)

    # -- behaviour hooks ------------------------------------------------------
    def served_time(self) -> float:
        """The time of day this server reports right now."""
        return self.clock.now()

    def leap_indicator(self) -> LeapIndicator:
        return LeapIndicator.NO_WARNING

    # -- protocol ---------------------------------------------------------------
    def handle_datagram(self, datagram: UDPDatagram) -> None:
        if datagram.dst_port != NTP_PORT:
            return
        try:
            request = NTPPacket.decode(datagram.payload)
        except PacketFormatError:
            note_malformed(self.network.simulator.obs, "server")
            return
        if request.mode != NTPMode.CLIENT:
            return
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("ntp.requests_received").inc()
        receive_time = self.served_time()
        transmit_time = self.served_time()
        reply = request.server_reply(
            receive_time=receive_time,
            transmit_time=transmit_time,
            stratum=self.STRATUM,
            reference_time=receive_time - 1.0,
            leap=self.leap_indicator(),
        )
        self.send_udp(datagram.src_ip, NTP_PORT, datagram.src_port, reply.encode())


class MaliciousNTPServer(NTPServer):
    """An attacker-controlled NTP server serving time shifted by the
    constant ``time_shift`` seconds (the attacker may change it between
    rounds)."""

    def __init__(self, network: Network, address: str, time_shift: float = 0.0,
                 name: Optional[str] = None) -> None:
        super().__init__(network, address, name=name or f"evil-ntp-{address}")
        self.time_shift = time_shift

    def served_time(self) -> float:
        return self.clock.now() + self.time_shift
