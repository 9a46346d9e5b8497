"""Chronos server-pool generation — the mechanism the paper attacks.

Chronos needs a pool of "roughly a hundred" NTP servers so that random
sampling has an honest super-majority to draw from.  The NDSS'18 design
obtains it by resolving ``pool.ntp.org`` **once per hour for 24 hours**;
each response carries 4 addresses, so the pool converges to ~96 servers
(fewer after de-duplication).

The DSN paper's observation (§IV) is that this very mechanism hands an
off-path attacker 24 independent chances to poison the resolver's cache, and
that a single success is enough when the poisoned response

* carries far more than 4 addresses (up to 89 fit unfragmented), and
* has a TTL longer than the remaining generation window, so every later
  hourly query is answered from cache and adds no further benign servers.

The two §V mitigations (cap the number of accepted addresses per response,
reject high TTLs) are the ``address_cap`` and ``ttl_discard`` defenses of
:mod:`repro.defenses.pool`; they act on the pool through the experiment's
defense stack, like every other pool-side countermeasure.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from ..defenses.base import PoolAcceptContext
from ..defenses.stack import DefenseStack
from ..dns.message import DNSMessage
from ..dns.nameserver import DEFAULT_ZONE
from ..dns.records import RecordType
from ..dns.resolver import DNSStub

#: Number of DNS queries the NDSS'18 pool generation performs.
DEFAULT_QUERY_COUNT = 24
#: Interval between pool-generation queries (one hour).
DEFAULT_QUERY_INTERVAL = 3600.0

#: The retired §V pool knobs of the ``chronos_pool_attack`` and
#: ``population_sweep`` scenarios, now the ``address_cap`` and ``ttl_discard``
#: defenses.  Pinned digests hash resolved params, so the keys stay at ``None``.
RETIRED_POOL_PARAMS = ("max_addresses_per_response", "max_accepted_ttl")


def reject_retired_pool_params(p: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` if resolved params set a retired pool knob."""
    if any(p[name] is not None for name in RETIRED_POOL_PARAMS):
        raise ValueError(f"{RETIRED_POOL_PARAMS} are retired: pass the §V mitigations "
                         "as defenses ('address_cap', 'ttl_discard')")


@dataclass(frozen=True)
class PoolGenerationPolicy:
    """Knobs of the pool-generation procedure (its §V mitigations are defenses)."""

    #: Total number of DNS queries (the paper and NDSS'18 use 24).
    query_count: int = DEFAULT_QUERY_COUNT
    #: Seconds between queries (hourly).
    query_interval: float = DEFAULT_QUERY_INTERVAL
    #: Keep only unique addresses (the Chronos design de-duplicates).
    #: ``False`` counts every delivered address, cache-hit repeats included.
    dedupe: bool = True

    def __post_init__(self) -> None:
        if self.query_count < 1:
            raise ValueError("query_count must be at least 1")
        if self.query_interval <= 0:
            raise ValueError("query_interval must be positive")


@dataclass
class PoolQueryRecord:
    """What one pool-generation query contributed."""

    index: int
    issued_at: float
    addresses: list[str] = field(default_factory=list)
    accepted_addresses: list[str] = field(default_factory=list)
    min_ttl: Optional[int] = None
    #: The defense that discarded the whole response, if one did.
    rejected_by: Optional[str] = None
    failed: bool = False


@dataclass
class GeneratedPool:
    """The outcome of a full pool-generation run."""

    servers: list[str]
    queries: list[PoolQueryRecord]
    started_at: float
    completed_at: float

    @property
    def size(self) -> int:
        return len(self.servers)

    def composition(self, malicious: Sequence[str]) -> PoolComposition:
        """Split the pool against a known set of attacker addresses."""
        malicious_set = set(malicious)
        bad = [server for server in self.servers if server in malicious_set]
        good = [server for server in self.servers if server not in malicious_set]
        return PoolComposition(benign=len(good), malicious=len(bad))


@dataclass(frozen=True)
class PoolComposition:
    """Benign/malicious counts of a generated pool."""

    benign: int
    malicious: int

    @property
    def total(self) -> int:
        return self.benign + self.malicious

    @property
    def malicious_fraction(self) -> float:
        return self.malicious / self.total if self.total else 0.0

    @property
    def attacker_has_two_thirds(self) -> bool:
        """Whether the attacker meets the 2/3 bound that defeats Chronos."""
        return self.total > 0 and self.malicious * 3 >= self.total * 2


PoolCallback = Callable[[GeneratedPool], None]


class ChronosPoolGenerator:
    """Runs the 24-hourly-query pool generation over a host's DNS stub.

    What each response contributes passes the experiment's defense stack
    (``on_pool_accept``, in stack order) — the one place the §V mitigations
    and every other pool-side countermeasure act.
    """

    def __init__(self, dns: DNSStub, hostname: str = DEFAULT_ZONE,
                 policy: Optional[PoolGenerationPolicy] = None,
                 defenses: Optional[DefenseStack] = None) -> None:
        self.dns = dns
        self.hostname = hostname
        self.policy = policy or PoolGenerationPolicy()
        self.defenses = defenses
        self.queries: list[PoolQueryRecord] = []
        self._servers: list[str] = []
        self._seen = set()
        self._callback: Optional[PoolCallback] = None
        self._started_at: Optional[float] = None
        self.running = False

    # -- public API -------------------------------------------------------------
    def generate(self, callback: PoolCallback) -> None:
        """Start pool generation; ``callback`` receives the finished pool."""
        if self.running:
            raise RuntimeError("pool generation already running")
        self.running = True
        self._callback = callback
        self._servers = []
        self._seen = set()
        self.queries = []
        self._started_at = self._now()
        self._issue_query(0)

    # -- internals ------------------------------------------------------------
    def _now(self) -> float:
        return self.dns.host.network.simulator.now

    def _issue_query(self, index: int) -> None:
        record = PoolQueryRecord(index=index, issued_at=self._now())
        self.queries.append(record)
        self.dns.lookup_message(
            self.hostname,
            lambda response, rec=record, idx=index: self._on_response(rec, idx, response),
        )

    def _on_response(self, record: PoolQueryRecord, index: int,
                     response: Optional[DNSMessage]) -> None:
        if response is None or not response.answers:
            record.failed = True
        else:
            a_records = [rr for rr in response.answers if rr.rtype == RecordType.A]
            record.addresses = [rr.rdata for rr in a_records]
            record.min_ttl = min((rr.ttl for rr in a_records), default=None)
            context = PoolAcceptContext(addresses=list(record.addresses),
                                        min_ttl=record.min_ttl,
                                        response=response)
            if self.defenses is not None:
                self.defenses.on_pool_accept(context)
            record.rejected_by = context.rejected_by
            record.accepted_addresses = list(context.addresses)
            self._absorb(record.accepted_addresses)
        next_index = index + 1
        if next_index >= self.policy.query_count:
            self._finish()
            return
        self.dns.host.network.simulator.schedule(
            self.policy.query_interval, lambda: self._issue_query(next_index))

    def _absorb(self, addresses: Sequence[str]) -> None:
        for address in addresses:
            if self.policy.dedupe:
                if address in self._seen:
                    continue
                self._seen.add(address)
            self._servers.append(address)

    def _finish(self) -> None:
        self.running = False
        pool = GeneratedPool(
            servers=list(self._servers),
            queries=list(self.queries),
            started_at=self._started_at or 0.0,
            completed_at=self._now(),
        )
        callback = self._callback
        self._callback = None
        if callback is not None:
            callback(pool)
