"""Batched per-client Chronos arithmetic: pool composition and selection.

Two pieces of the packet-level model vectorize exactly:

* **Pool composition.**  With address-counting pool generation
  (``dedupe=False``: every delivered address counts, repeats included), the
  composition a client ends up with is a *closed form* of the query index
  ``k`` at which the poisoning landed: the first ``k - 1`` queries contribute
  benign addresses, the poisoned query contributes the attacker records, and
  every later query within the malicious TTL is a cache hit that re-delivers
  (and re-absorbs) the same records.  This is the one declaration of the
  pool arithmetic: the §IV sweep counts the flood once on top of it, and the
  §V table evaluates it per defense-matrix cell.  :func:`compose_client`
  evaluates it for one client, including the TTL-expiry regime and the §V
  defenses the packet pool generator runs (:meth:`FleetPolicy.accepted`).
  The deduplicating mode is the one place the batch layer is *approximate*
  (an expected-distinct estimate); the equivalence gate therefore runs
  ``dedupe=False``, where the closed form is packet-exact.

* **Selection.**  :func:`batch_chronos_select` applies the Chronos rule to a
  batch of offset rows.  Trimming and the spread check are pure order
  statistics and vectorize; the survivor *average* is deliberately computed
  per row with :func:`statistics.mean` (exact rational arithmetic) on both
  backends, so outcomes match :func:`repro.core.selection.chronos_select`
  element-wise including at decision boundaries.  The fleet engine's hot
  path never calls this on raw float rows — it uses the two-point
  specialization in :mod:`repro.population.engine` — so exactness here costs
  nothing at scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from statistics import mean
from typing import Any, Optional

from ..core.pool_generation import PoolComposition
from ..core.selection import ChronosConfig, SelectionStatus
from ..defenses.base import PoolAcceptContext
from ..defenses.pool import HighTTLDiscard, PerResponseAddressCap
from ..defenses.stack import DefenseSpec, DefenseStack

#: Defaults mirroring the packet-level testbed (see ``experiments.testbed``).
DEFAULT_BENIGN_PER_RESPONSE = 4
DEFAULT_ATTACKER_RECORDS = 89
DEFAULT_BENIGN_TTL = 150

#: The defenses the closed form models; the others act on packets or, like
#: ``multi_vantage``, need a built testbed.
CLOSED_FORM_DEFENSES = (PerResponseAddressCap, HighTTLDiscard)


@dataclass(frozen=True)
class FleetPolicy:
    """Pool-generation policy of one client cohort, in closed-form terms."""

    query_count: int = 24
    query_interval: float = 3600.0
    benign_per_response: int = DEFAULT_BENIGN_PER_RESPONSE
    attacker_records: int = DEFAULT_ATTACKER_RECORDS
    #: Size of the benign volunteer population (only the deduplicating
    #: approximation consults it).
    benign_servers: int = 200
    benign_ttl: int = DEFAULT_BENIGN_TTL
    malicious_ttl: int = 2 * 86400
    #: ``True`` mirrors the NDSS design (unique addresses, approximated);
    #: ``False`` counts every delivered address, so each cache hit re-counts
    #: the flood (exact, but its 2/3 crossover is query 23, not §IV's 12).
    dedupe: bool = False
    #: Pool-side countermeasures, a spec like ``TestbedConfig.defenses`` but
    #: of :data:`CLOSED_FORM_DEFENSES` only (others raise ``ValueError``).
    defenses: DefenseSpec = ()

    def __post_init__(self) -> None:
        if self.query_count < 1:
            raise ValueError("query_count must be at least 1")
        if self.query_interval <= 0:
            raise ValueError("query_interval must be positive")
        if self.benign_per_response < 0 or self.attacker_records < 0:
            raise ValueError("record counts cannot be negative")
        unmodelled = [defense.name for defense in DefenseStack.from_spec(self.defenses)
                      if not isinstance(defense, CLOSED_FORM_DEFENSES)]
        if unmodelled:
            raise ValueError(f"the fleet's closed form cannot model defenses {unmodelled}")

    def accepted(self, records: int, ttl: int) -> int:
        """How many of one response's ``records`` addresses, all under
        ``ttl``, the pool-side defenses let into the pool."""
        context = PoolAcceptContext(addresses=list(map(str, range(records))), min_ttl=ttl)
        DefenseStack.from_spec(self.defenses).on_pool_accept(context)
        return len(context.addresses)

    def cached_hit_count(self, poison_at_query: int) -> int:
        """How many of the later queries the poisoned entry answers from cache.

        The entry expires ``malicious_ttl`` seconds after the poisoned query;
        query ``k + j`` lands ``j * query_interval`` later.  TTLs within a
        couple of round-trips of a query-grid boundary are ambiguous at the
        packet level (the real queries drift ~40 ms per round trip); callers
        wanting packet-exact results keep the TTL clear of the grid.
        """
        remaining = self.query_count - poison_at_query
        if self.malicious_ttl >= remaining * self.query_interval:
            return remaining
        return min(remaining, int(self.malicious_ttl // self.query_interval))

    def benign_pool_size(self, benign_queries: int, accepted: int) -> int:
        """Benign servers in the pool after ``benign_queries`` responses that
        each let ``accepted`` addresses in.

        Address counting is exact.  Deduplicating is the approximation:
        drawing ``r`` of ``B`` servers per query, the expected number of
        distinct servers after ``q`` queries is ``B * (1 - (1 - r/B)^q)``;
        rounded half-up so both backends agree.
        """
        if not self.dedupe:
            return benign_queries * accepted
        if benign_queries <= 0 or accepted <= 0:
            return 0
        ratio = 1.0 - accepted / self.benign_servers
        expected = self.benign_servers * (1.0 - ratio ** benign_queries)
        return int(math.floor(expected + 0.5))


@dataclass(frozen=True)
class ClientComposition(PoolComposition):
    """Closed-form pool outcome of one client (ints only — backend-neutral)."""

    poison_at_query: int  # 0 = never poisoned
    cache_hits: int
    poisoned_query_count: int

    def poisoned_queries(self) -> list[int]:
        """1-indexed query indices whose accepted records include attacker
        addresses — the poisoned query plus its cache-hit repeats."""
        if self.poisoned_query_count == 0:
            return []
        start = self.poison_at_query
        return list(range(start, start + self.poisoned_query_count))


def compose_client(policy: FleetPolicy, poison_at_query: int) -> ClientComposition:
    """The closed-form composition for one client (``0`` = never poisoned)."""
    benign_accept = policy.accepted(policy.benign_per_response, policy.benign_ttl)
    if poison_at_query <= 0 or poison_at_query > policy.query_count:
        benign = policy.benign_pool_size(policy.query_count, benign_accept)
        return ClientComposition(benign, 0, poison_at_query=0, cache_hits=0,
                                 poisoned_query_count=0)

    k = poison_at_query
    hits = policy.cached_hit_count(k)
    benign = policy.benign_pool_size((k - 1) + (policy.query_count - k - hits),
                                     benign_accept)
    # The poisoned entry occupies the resolver cache whatever the client's
    # defenses let into the pool, so the cache hits happen either way.
    accepted = policy.accepted(policy.attacker_records, policy.malicious_ttl)
    deliveries = 1 + hits
    malicious = accepted if policy.dedupe else accepted * deliveries
    poisoned_count = deliveries if accepted > 0 else 0
    return ClientComposition(benign, malicious, poison_at_query=k, cache_hits=hits,
                             poisoned_query_count=poisoned_count)


@dataclass
class BatchSelection:
    """Element-wise outcomes of a batched selection call."""

    statuses: list[SelectionStatus]
    offsets: list[Optional[float]]

    def __len__(self) -> int:
        return len(self.statuses)

    @property
    def accepted(self) -> list[bool]:
        return [status is SelectionStatus.OK for status in self.statuses]


def _sorted_rows(rows: Sequence[Sequence[float]], np: Optional[Any]) -> list[list[float]]:
    """Rows sorted ascending; numpy sorts rectangular batches in one call."""
    if np is not None:
        array = np.asarray(rows, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("numpy batch selection requires rectangular rows")
        return np.sort(array, axis=1).tolist()
    return [sorted(row) for row in rows]


def batch_chronos_select(rows: Sequence[Sequence[float]], config: ChronosConfig,
                         elapsed_since_update: float = 0.0,
                         np: Optional[Any] = None) -> BatchSelection:
    """Apply the Chronos selection rule to every row of offsets.

    Matches :func:`repro.core.selection.chronos_select` element-wise: same
    statuses, same accepted offsets (the survivor mean is computed with the
    same exact-arithmetic ``statistics.mean``).
    """
    trim = config.trim_count
    minimum_required = 2 * trim + 1
    window = config.agreement_window
    bound = config.local_bound(elapsed_since_update)
    statuses: list[SelectionStatus] = []
    offsets: list[Optional[float]] = []
    for ordered in _sorted_rows(rows, np):
        if len(ordered) < minimum_required:
            statuses.append(SelectionStatus.TOO_FEW_SAMPLES)
            offsets.append(None)
            continue
        survivors = ordered[trim:len(ordered) - trim] if trim else ordered
        spread = survivors[-1] - survivors[0]
        if spread > window:
            statuses.append(SelectionStatus.WIDE_SPREAD)
            offsets.append(None)
            continue
        average = mean(survivors)
        if abs(average) > bound:
            statuses.append(SelectionStatus.FAR_FROM_LOCAL)
            offsets.append(None)
            continue
        statuses.append(SelectionStatus.OK)
        offsets.append(average)
    return BatchSelection(statuses, offsets)


def batch_panic_select(rows: Sequence[Sequence[float]],
                       np: Optional[Any] = None) -> BatchSelection:
    """Panic mode for every row: trim a third each end, average, no checks.

    Matches :func:`repro.core.selection.panic_select` element-wise.
    """
    statuses: list[SelectionStatus] = []
    offsets: list[Optional[float]] = []
    for ordered in _sorted_rows(rows, np):
        trim = len(ordered) // 3
        survivors = ordered[trim:len(ordered) - trim] if len(ordered) > 2 * trim else ordered
        if not survivors:
            statuses.append(SelectionStatus.TOO_FEW_SAMPLES)
            offsets.append(None)
            continue
        statuses.append(SelectionStatus.OK)
        offsets.append(mean(survivors))
    return BatchSelection(statuses, offsets)
