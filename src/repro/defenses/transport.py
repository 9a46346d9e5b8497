"""The encrypted-transport defense: DoT/DoH as a stack member.

The paper's countermeasure analysis ends where entropy runs out: every
hardening that adds unguessable bits to a *datagram* (0x20, cookies, random
ports) is either echoed by a hijacker or bypassed by the fragment splice.
Encrypted transports change the game instead of the odds — the resolver
speaks to its nameservers over an authenticated, sequence-checked stream, so
there is no datagram to spoof and no handshake a hijacker can complete
without the zone's certificate key.  The price is the changed trust model
the paper flags: the defense only exists where both ends deploy it, and the
*policy* for partial deployment decides everything:

* ``encrypted_transport`` (**strict** DoT) — plaintext is never spoken.  A
  failed encrypted connection means a failed query (SERVFAIL), never a
  downgraded one.  This closes every off-path row of the matrix, including
  the sustained 24-hour hijack: the attacker can deny resolution, but can
  no longer answer it.
* ``encrypted_transport_opportunistic`` — prefer DoT, fall back to
  plaintext UDP when the encrypted transport fails (connecting gives up
  after one second) and stay on plaintext to that nameserver for ten
  minutes.  Availability is
  preserved, but an attacker who can *make* the transport fail (SYN-flood
  the nameserver's listeners, blackhole 853 behind a hijack) re-opens the
  entire plaintext attack surface — measured by the ``downgrade`` attack
  row (:mod:`repro.attacks.downgrade`).
* ``encrypted_transport_doh`` — strict DNS-over-HTTPS; same guarantees as
  strict DoT behind HTTP framing on 443.

``attach_testbed`` sets up both ends on the built world.  On the
nameserver it opens the policy's stream listener beside plain TCP (so the
TC-bit fallback has a target), with session resumption when the policy
sends 0-RTT.  On the resolver it routes upstream queries through a
:class:`~repro.dns.transport.ResolverUpstreamTransport` pinned to the zone
identity and to the certificate key the nameserver's listeners present.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dns.transport import (
    DNSServerTransport,
    EncryptedTransportPolicy,
    ResolverUpstreamTransport,
)
from .base import Defense
from .registry import register_defense

if TYPE_CHECKING:
    from ..experiments.testbed import Testbed


@register_defense
class EncryptedTransport(Defense):
    """Strict DNS-over-TLS between the resolver and its nameservers."""

    name = "encrypted_transport"
    protocol = "dot"
    strict = True

    def __init__(self, **knobs) -> None:
        #: The knobs (``reuse_connections``, ``idle_timeout``,
        #: ``zero_rtt``) and their defaults are declared once, on the
        #: policy; unknown keywords raise ``TypeError`` there.
        self.policy = EncryptedTransportPolicy(
            protocol=self.protocol, strict=self.strict, **knobs)

    def attach_testbed(self, testbed: Testbed) -> None:
        server = DNSServerTransport.of(testbed.nameserver)
        server.listen(("tcp", self.protocol), session_resumption=self.policy.zero_rtt)
        testbed.resolver.use_upstream_transport(ResolverUpstreamTransport(
            testbed.resolver,
            policy=self.policy,
            trust_anchor=server.cert_key,
            expected_identity=server.identity,
        ))


@register_defense
class OpportunisticEncryptedTransport(EncryptedTransport):
    """Opportunistic DoT: prefer TLS, fall back to plaintext on failure."""

    name = "encrypted_transport_opportunistic"
    strict = False


@register_defense
class EncryptedTransportDoH(EncryptedTransport):
    """Strict DNS-over-HTTPS between the resolver and its nameservers."""

    name = "encrypted_transport_doh"
    protocol = "doh"
