"""repro.defenses — composable DNS/NTP countermeasures.

A :class:`Defense` is a small object with lifecycle hooks (configure/attach
testbed, outgoing query, incoming response, pool admission, NTP sample); a
:class:`DefenseStack` composes them deterministically; the registry makes
every defense buildable from a plain name so experiment configs stay flat
and picklable.

Quick start::

    from repro.experiments import run_scenario

    # Any attack scenario accepts a ``defenses`` tuple of registry names:
    metrics = run_scenario("bgp_hijack", seed=1,
                           params={"defenses": ("multi_vantage",)})

The built-in defenses span both protocol layers.  Each is one fixed rule,
switched on by its name; only the three ``encrypted_transport*`` policies
take knobs (``EncryptedTransport(reuse_connections=True)``, passed as an
instance):

========================  =====================================================
``random_txid``           random DNS transaction ids (classic, RFC 5452)
``random_source_port``    random resolver source ports (classic, RFC 5452)
``response_matching``     source-address + question echo validation (classic)
``fragment_rejection``    refuse responses reassembled from spoofed fragments
``response_record_cap``   resolver-side cap: ≤4 records accepted per response
``cache_ttl_cap``         resolver-side cap: no entry cached beyond 3,600 s
``dns_0x20``              query-name case randomisation + echo verification
``dns_cookies``           RFC 7873-style cookie echo verification
``pmtu_floor``            nameserver refuses to fragment below 1,500 bytes
``response_signing``      DNSSEC-style RRset signing + validation
``response_rate_limit``   nameserver-side response rate limiting (RRL)
``serve_stale``           RFC 8767 stale answers while upstream fails
``upstream_retries``      retry timed-out upstream queries with backoff
``address_cap``           §V mitigation 1: ≤4 addresses per response (pool;
                          the fleet engine's closed form accepts it too)
``ttl_discard``           §V mitigation 2: discard responses with a TTL above
                          3,600 s (pool; the fleet's closed form accepts it too)
``multi_vantage``         cross-check responses/pool/samples against vantage
                          observations of the zone profile and true time
``encrypted_transport``   strict DNS-over-TLS upstream (fail closed)
``encrypted_transport_opportunistic``
                          DoT with plaintext fallback (downgradeable)
``encrypted_transport_doh``
                          strict DNS-over-HTTPS upstream
========================  =====================================================
"""

from .base import Defense, PoolAcceptContext, QueryContext, ResponseContext
from .classic import (
    CacheTTLCap,
    FragmentedResponseRejection,
    RandomSourcePort,
    RandomTransactionID,
    ResponseMatching,
    ResponseRecordCap,
)
from .hardening import DNS0x20Encoding, DNSCookies, PMTUFloor, ResponseSigning
from .pool import HighTTLDiscard, MultiVantageCrossCheck, PerResponseAddressCap
from .registry import available_defenses, build_defense, register_defense
from .stack import DefenseSpec, DefenseStack
from .transport import (
    EncryptedTransport,
    EncryptedTransportDoH,
    OpportunisticEncryptedTransport,
)

__all__ = [
    "Defense",
    "PoolAcceptContext",
    "QueryContext",
    "ResponseContext",
    "CacheTTLCap",
    "FragmentedResponseRejection",
    "RandomSourcePort",
    "RandomTransactionID",
    "ResponseMatching",
    "ResponseRecordCap",
    "DNS0x20Encoding",
    "DNSCookies",
    "PMTUFloor",
    "ResponseSigning",
    "HighTTLDiscard",
    "MultiVantageCrossCheck",
    "PerResponseAddressCap",
    "available_defenses",
    "build_defense",
    "register_defense",
    "DefenseSpec",
    "DefenseStack",
    "EncryptedTransport",
    "EncryptedTransportDoH",
    "OpportunisticEncryptedTransport",
]
