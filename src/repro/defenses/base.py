"""The :class:`Defense` protocol: pluggable DNS/NTP countermeasures.

The paper's argument is structured around defenses: the standard off-path
protections (random transaction id, source-port randomisation, response
matching) do *not* stop the fragmentation and BGP-hijack vectors, and the §V
mitigations (per-response address cap, high-TTL discard) still leave a
residual 24-hour-hijack attack.  To make that argument *sweepable* — any
attack against any combination of countermeasures — every defense is a small
object with lifecycle hooks, and a :class:`~repro.defenses.stack.DefenseStack`
composes them deterministically.

A defense may participate at any subset of five points:

* ``configure_testbed`` — before the world is built, adjust the declarative
  :class:`~repro.experiments.testbed.TestbedConfig` (e.g. a PMTU floor stops
  the nameserver from fragmenting; response signing provisions a zone key);
* ``attach_testbed`` — after the world is built, capture whatever the defense
  needs at runtime (e.g. the zone's published response profile);
* ``on_outgoing_query`` — harden a resolver's upstream query (randomise the
  transaction id / source port, add 0x20 case encoding, attach a cookie);
* ``on_incoming_response`` — validate a response before it is accepted into
  the cache; returning a reason string rejects it;
* ``on_pool_accept`` — filter what a Chronos pool-generation response
  contributes to the pool (the §V mitigations live here);
* ``on_ntp_sample`` — veto individual NTP samples before selection.

Hooks default to no-ops so a defense implements only the layers it touches.
Every hook must draw randomness exclusively from the context's simulator RNG
(or be deterministic), keeping experiment sweeps reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # only for annotations; keeps this module import-cycle-free
    import random

    from ..dns.message import DNSMessage, Question
    from ..dns.records import ResourceRecord
    from ..experiments.testbed import Testbed, TestbedConfig
    from ..netsim.packets import UDPDatagram
    from ..ntp.query import TimeSample

#: §V mitigation 1: the most addresses one DNS response may contribute
#: (``address_cap`` in the pool, ``response_record_cap`` in the resolver).
MAX_ADDRESSES = 4
#: §V mitigation 2: the highest TTL in seconds a response may carry
#: (``ttl_discard`` in the pool, ``cache_ttl_cap`` in the resolver).
MAX_TTL = 3600


@dataclass
class QueryContext:
    """Mutable state of one upstream query as it leaves the resolver.

    Defenses set ``transaction_id``, ``source_port``, ``cookie`` and
    ``case_nonce``; once every hook ran, the resolver builds ``query`` from
    them.  Per-query verification state goes into ``state`` and is available
    again when the response arrives.
    """

    question: Question
    transaction_id: int
    source_port: int
    nameserver_address: str
    rng: random.Random
    cookie: Optional[int] = None
    case_nonce: Optional[int] = None
    state: dict[str, Any] = field(default_factory=dict)
    query: Optional[DNSMessage] = None


@dataclass
class ResponseContext:
    """One candidate response, paired with the query context it answers.

    ``answers`` starts as the question-type records of the response; defenses
    may trim or TTL-cap it, and whatever remains is cached.  ``poisoned``
    marks a datagram reassembled from spoofed fragments.
    """

    response: DNSMessage
    datagram: UDPDatagram
    query: QueryContext
    poisoned: bool
    answers: list[ResourceRecord]


@dataclass
class PoolAcceptContext:
    """One pool-generation response on its way into the Chronos pool."""

    addresses: list[str]
    min_ttl: Optional[int]
    response: Optional[DNSMessage] = None
    rejected_by: Optional[str] = None
    rejected_reason: Optional[str] = None

    def discard(self, defense_name: str, reason: str) -> None:
        """Reject the whole response; no address reaches the pool."""
        self.addresses = []
        self.rejected_by = defense_name
        self.rejected_reason = reason


class Defense:
    """Base class with no-op hooks; subclasses override what they need.

    ``name`` is the registry key (see :mod:`repro.defenses.registry`) and the
    label used in rejection accounting.
    """

    name = "defense"

    # -- testbed lifecycle ---------------------------------------------------
    def configure_testbed(self, config: TestbedConfig) -> None:
        """Adjust the declarative world description before it is built."""

    def attach_testbed(self, testbed: Testbed) -> None:
        """Capture runtime state from the built world."""

    # -- resolver-side hooks ---------------------------------------------------
    def on_outgoing_query(self, ctx: QueryContext) -> None:
        """Harden an upstream query before it is sent."""

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        """Validate a response; return a reason string to reject it."""

    # -- client-side hooks -------------------------------------------------------
    def on_pool_accept(self, ctx: PoolAcceptContext) -> None:
        """Filter the addresses one response contributes to the pool."""

    def on_ntp_sample(self, sample: TimeSample) -> Optional[str]:
        """Veto an NTP sample; return a reason string to drop it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
