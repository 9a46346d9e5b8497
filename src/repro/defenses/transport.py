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

``configure_testbed`` provisions the zone's certificate key and the
nameserver's stream listeners (plain TCP is always included so the TC-bit
fallback has a target); ``attach_testbed`` pins the resolver to the zone
identity and routes its upstream queries through a
:class:`~repro.dns.transport.ResolverUpstreamTransport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dns.nameserver import DEFAULT_ZONE
from ..dns.transport import EncryptedTransportPolicy, ResolverUpstreamTransport
from .base import Defense
from .registry import register_defense

if TYPE_CHECKING:
    from ..experiments.testbed import Testbed, TestbedConfig


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

    def configure_testbed(self, config: TestbedConfig) -> None:
        if config.transport_cert_key is None:
            config.transport_cert_key = f"tls|{DEFAULT_ZONE}|{config.seed}"
        wanted = ("tcp", self.protocol)
        config.nameserver_transports = tuple(
            dict.fromkeys((*config.nameserver_transports, *wanted)))
        if self.policy.zero_rtt:
            config.nameserver_session_resumption = True

    def attach_testbed(self, testbed: Testbed) -> None:
        testbed.resolver.use_upstream_transport(ResolverUpstreamTransport(
            testbed.resolver,
            policy=self.policy,
            trust_anchor=testbed.config.transport_cert_key,
            expected_identity=DEFAULT_ZONE,
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
