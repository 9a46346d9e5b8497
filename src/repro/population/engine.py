"""The fleet engine: population-scale Chronos clients against shared resolvers.

The packet-level testbed simulates one victim per run at ~10² clients/sec.
This engine simulates *fleets* — up to millions of clients — by replacing the
event loop with three vectorizable stages:

1. **Poisoning propagation.**  Clients query their resolver once per
   ``query_interval`` from staggered start times.  Because the benign TTL is
   (much) shorter than the interval, a resolver's cache over the attack
   domain is a renewal process driven by the *union* of its clients' query
   grids; the first upstream miss inside the hijack window
   ``[hijack_start, hijack_start + hijack_duration)`` fixes the resolver's
   poison time.  The walk anchors the cache empty at
   ``hijack_start - benign_ttl`` (any entry fetched earlier has expired by
   the window; an entry fetched inside the anchor gap can at most shift the
   pre-window renewal phase — a documented approximation that is *exact*
   whenever ``benign_ttl < query_interval`` and resolvers serve single
   clients, the regime the equivalence gate runs).

2. **Pool composition.**  Each client's effective poison query ``k`` follows
   from its start and its resolver's poison time; the composition is the
   closed form of :func:`repro.population.batch.compose_client`.

3. **Update rounds.**  The time-shift phase collapses to a two-point offset
   model: every benign sample reads ``-S`` (the shift applied so far) and
   every malicious sample ``T - S``.  A Chronos attempt then depends only on
   *how many* of the ``m`` sampled servers are malicious — one hypergeometric
   draw — and the trimmed mean, spread and local-bound checks become integer
   clamps plus one float expression.  Panic (three failed attempts) trims the
   whole pool and always applies its mean.

Backend parity: all randomness is counter-addressed
(:class:`repro.population.rng.CounterRNG`, keyed by global client id so
cohort sharding cannot change any draw), integer aggregates are exact, the
shift sum is summed exactly over each group's ``(distinct shift, clients)``
pairs and rounded once, and the per-group attacker-fraction terms go through
:func:`math.fsum` — all order-independent, so the numpy and pure-python paths
produce identical metrics, and so do different worker counts over the same
cohorts.  The numpy path keeps clients in arrays: groups are slices of one
sort, and a retry draws only for the clients it has not yet resolved.

Deliberate simplifications versus the packet model (documented, and outside
what the equivalence gate compares): the local-agreement bound uses elapsed
``0`` for the first round and ``poll_interval`` afterwards (the packet client
adds a few network latencies), and malicious-entry expiry is measured from
the client's first poisoned query rather than the resolver's poison time
(identical whenever resolvers serve single clients or the TTL is long).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from ..core.security_analysis import shift_reached
from ..core.selection import ChronosConfig
from ..obs import current as _current_obs
from .batch import ClientComposition, FleetPolicy, compose_client
from .rng import CounterRNG, hypergeom_sampler, resolve_backend

#: Counter-RNG stream ids (never reuse a stream for two purposes).
STREAM_STAGGER = 1
STREAM_SELECT = 2


@dataclass(frozen=True)
class FleetConfig:
    """One cohort of a (possibly sharded) client fleet.

    ``client_offset``/``population`` exist for sharding: a cohort covers
    global client ids ``[client_offset, client_offset + clients)`` out of a
    fleet of ``population``.  Every random draw is keyed by *global* id, and
    resolver poison times are computed from the *whole* population, so
    concatenating cohort runs reproduces the unsharded fleet exactly.
    """

    clients: int
    resolvers: int = 1
    client_offset: int = 0
    population: Optional[int] = None
    seed: int = 0
    #: Client start times are uniform in ``[0, stagger_window)``...
    stagger_window: float = 86400.0
    #: ...unless pinned explicitly (used by the equivalence gate to hit every
    #: poison index deterministically).  Length must equal ``population``.
    explicit_starts: Optional[tuple[float, ...]] = None
    policy: FleetPolicy = field(default_factory=FleetPolicy)
    chronos: ChronosConfig = field(default_factory=ChronosConfig)
    hijack_start: float = 90000.0
    hijack_duration: float = 600.0
    run_time_shift: bool = True
    target_shift: float = 600.0
    update_rounds: int = 5
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.clients < 0:
            raise ValueError("clients cannot be negative")
        if self.resolvers < 1:
            raise ValueError("resolvers must be at least 1")
        if self.client_offset < 0:
            raise ValueError("client_offset cannot be negative")
        total = self.total_population
        if total < self.client_offset + self.clients:
            raise ValueError("population smaller than client_offset + clients")
        if self.explicit_starts is not None and len(self.explicit_starts) != total:
            raise ValueError("explicit_starts must cover the whole population")
        if self.hijack_duration <= 0:
            raise ValueError("hijack_duration must be positive")
        if self.update_rounds < 0:
            raise ValueError("update_rounds cannot be negative")

    @property
    def total_population(self) -> int:
        if self.population is not None:
            return self.population
        return self.client_offset + self.clients

    def population_key(self) -> tuple:
        """Everything the resolver poison map depends on (memoisation key)."""
        return (self.seed, self.total_population, self.resolvers,
                self.stagger_window, self.explicit_starts,
                self.policy.query_count, self.policy.query_interval,
                self.policy.benign_ttl, self.hijack_start, self.hijack_duration)


# ---------------------------------------------------------------------------
# Stage 1: start times and resolver poison times
# ---------------------------------------------------------------------------

def _population_starts(config: FleetConfig, lo: int, hi: int,
                       np: Optional[Any]) -> Any:
    """Start times of global client ids ``[lo, hi)`` (array or list)."""
    if config.explicit_starts is not None:
        starts = config.explicit_starts[lo:hi]
        if np is not None:
            return np.asarray(starts, dtype=np.float64)
        return list(starts)
    rng = CounterRNG(config.seed, STREAM_STAGGER, backend=np)
    if np is not None:
        uniforms = rng.uniforms(np.arange(lo, hi, dtype=np.uint64))
        return uniforms * config.stagger_window
    uniforms = rng.uniforms(range(lo, hi))
    return [u * config.stagger_window for u in uniforms]


_POISON_MEMO: dict[tuple, dict[int, float]] = {}


def resolver_poison_times(config: FleetConfig,
                          np: Optional[Any]) -> dict[int, float]:
    """``{resolver id: poison time}`` for the resolvers hijacking reaches.

    Computed from the *whole* population (ids ``0..population``), never the
    cohort, so every cohort of a sharded fleet sees the same map.  Memoised
    per process — both backends produce identical maps, so the cache key can
    ignore which backend filled it.
    """
    key = config.population_key()
    cached = _POISON_MEMO.get(key)
    if cached is not None:
        return cached

    interval = config.policy.query_interval
    query_count = config.policy.query_count
    ttl = float(config.policy.benign_ttl)
    window_lo = config.hijack_start - ttl
    window_hi = config.hijack_start + config.hijack_duration
    total = config.total_population
    # Query offsets that can land inside the walk window per client.
    candidates = int((window_hi - window_lo) // interval) + 2

    events: list[tuple[int, float, int]] = []  # (resolver, time, gid)
    if np is not None and config.explicit_starts is None and total > 0:
        starts = _population_starts(config, 0, total, np)
        gids = np.arange(total, dtype=np.int64)
        first = np.maximum(np.ceil((window_lo - starts) / interval),
                           0.0).astype(np.int64)
        for extra in range(candidates):
            j = first + extra
            times = starts + j * interval
            mask = (j < query_count) & (times >= window_lo) & (times < window_hi)
            if not mask.any():
                continue
            events.extend((gid % config.resolvers, when, gid)
                          for gid, when in zip(gids[mask].tolist(), times[mask].tolist()))
    else:
        starts = _population_starts(config, 0, total, None)
        for gid, start in enumerate(starts):
            first = max(math.ceil((window_lo - start) / interval), 0)
            for extra in range(candidates):
                j = first + extra
                if j >= query_count:
                    break
                when = start + j * interval
                if when >= window_hi:
                    break
                if when >= window_lo:
                    events.append((gid % config.resolvers, when, gid))

    # Renewal walk per resolver over its time-ordered query events, cache
    # anchored empty at window_lo.  Hits do not refresh the TTL (caches count
    # it from fetch time), and the first miss at or after hijack_start is the
    # poisoning.
    events.sort()
    poisoned: dict[int, float] = {}
    cache_until: dict[int, float] = {}
    for resolver, when, _gid in events:
        if resolver in poisoned:
            continue
        if when < cache_until.get(resolver, -math.inf):
            continue  # served from the cached benign entry
        if when >= config.hijack_start:
            poisoned[resolver] = when
        else:
            cache_until[resolver] = when + ttl

    _POISON_MEMO[key] = poisoned
    return poisoned


# ---------------------------------------------------------------------------
# Stage 2: per-client poison query index
# ---------------------------------------------------------------------------

def cohort_poison_queries(config: FleetConfig, np: Optional[Any]
                          ) -> tuple[Any, Any, dict[int, float]]:
    """``(starts, poison_queries, poison_map)`` for the cohort's clients.

    ``poison_queries[i]`` is the 1-indexed query at which cohort client ``i``
    first receives the poisoned entry, or ``0`` if its resolver is never
    poisoned (or is poisoned only after the client's last query).
    """
    poisoned = resolver_poison_times(config, np)
    lo = config.client_offset
    hi = lo + config.clients
    starts = _population_starts(config, lo, hi, np)
    interval = config.policy.query_interval
    query_count = config.policy.query_count

    if np is not None:
        gids = np.arange(lo, hi, dtype=np.int64)
        resolver_ids = gids % config.resolvers
        by_resolver = np.full(config.resolvers, math.inf, dtype=np.float64)
        for resolver, when in poisoned.items():
            by_resolver[resolver] = when
        ptimes = by_resolver[resolver_ids]
        reached = np.isfinite(ptimes)
        delta = np.where(reached, ptimes - starts, 0.0)
        ks = np.ceil(delta / interval).astype(np.int64) + 1
        np.clip(ks, 1, None, out=ks)
        # ±1 fix-up around float division at exact grid points.
        ks = np.where(starts + (ks - 2) * interval >= ptimes,
                      ks - 1, ks)
        ks = np.where(starts + (ks - 1) * interval < ptimes, ks + 1, ks)
        np.clip(ks, 1, None, out=ks)
        ks = np.where(~reached | (ks > query_count), 0, ks)
        return starts, ks, poisoned

    ks: list[int] = []
    for index, start in enumerate(starts):
        gid = lo + index
        when = poisoned.get(gid % config.resolvers)
        if when is None:
            ks.append(0)
            continue
        if when <= start:
            ks.append(1)
            continue
        k = math.ceil((when - start) / interval) + 1
        if k > 1 and start + (k - 2) * interval >= when:
            k -= 1
        if start + (k - 1) * interval < when:
            k += 1
        k = max(k, 1)
        ks.append(0 if k > query_count else k)
    return starts, ks, poisoned


# ---------------------------------------------------------------------------
# Stage 3: batched update rounds (two-point offset model)
# ---------------------------------------------------------------------------

def _run_group_shift(config: FleetConfig, comp: ClientComposition,
                     indices: Any, np: Optional[Any]) -> tuple[Any, Any, int]:
    """Run the update rounds for the cohort clients at ``indices``, which share
    one composition: ``(shifts, panic_rounds, updates_run)``, per-client arrays
    on numpy and lists on python; ``updates_run`` is the same for every member.
    """
    chronos = config.chronos
    members = len(indices)
    pool = comp.total
    if pool == 0:
        # The packet client never starts updates on an empty pool.
        if np is None:
            return [0.0] * members, [0] * members, 0
        return np.zeros(members), np.zeros(members, dtype=np.int64), 0

    target = config.target_shift
    rounds = config.update_rounds + 1
    attempts = chronos.max_retries + 1  # the initial sample plus the retries
    trim = chronos.trim_count
    m_eff = min(chronos.sample_size, pool)
    survivors = m_eff - 2 * trim
    too_few = m_eff < 2 * trim + 1
    # Panic: query the whole pool, trim a third each end, apply the mean.
    panic_trim = pool // 3
    panic_n = pool - 2 * panic_trim
    panic_mal = min(max(comp.malicious - panic_trim, 0), panic_n)
    panic_target = panic_mal * target / panic_n
    mixed_fails = abs(target) > chronos.agreement_window

    rng = CounterRNG(config.seed, STREAM_SELECT, backend=np)
    sampler = None if too_few else hypergeom_sampler(pool, comp.malicious, m_eff)
    degenerate = sampler is not None and sampler.low == sampler.high
    # The trimmed mean and the spread verdict per malicious count.
    survs = [min(max(mal - trim, 0), survivors)
             for mal in range(0 if sampler is None else sampler.high + 1)]
    gains = [surv * target / survivors for surv in survs]
    spread_ok = [not mixed_fails or surv in (0, survivors) for surv in survs]

    if np is not None:
        # Draw (gid, round, attempt) sits at counter (gid * rounds + round) *
        # attempts + attempt; a retry draws only for the unresolved clients.
        base = (indices + config.client_offset).astype(np.uint64) * (rounds * attempts)
        gains, spread_ok = np.asarray(gains), np.asarray(spread_ok, dtype=bool)
        shift = np.zeros(members)
        panic_count = np.zeros(members, dtype=np.int64)
        for rnd in range(rounds):
            bound = chronos.local_bound(0.0 if rnd == 0 else chronos.poll_interval)
            active = np.arange(members)
            for attempt in range(0 if too_few else attempts):
                if not active.size:
                    break
                if degenerate:
                    mal = sampler.low
                else:
                    counters = base[active] + (rnd * attempts + attempt)
                    mal = sampler.sample_from(rng.uniforms(counters), np=np)
                means = gains[mal] - shift[active]
                ok = (np.abs(means) <= bound) & spread_ok[mal]
                taken = active[ok]
                shift[taken] += means[ok]
                active = active[~ok]
            shift[active] = panic_target
            panic_count[active] += 1
        return shift, panic_count, rounds

    shift_list = [0.0] * members
    panic_list = [0] * members
    for pos, index in enumerate(indices):
        shift = 0.0
        panics = 0
        base = ((config.client_offset + index) * rounds) * attempts
        for rnd in range(rounds):
            bound = chronos.local_bound(0.0 if rnd == 0 else chronos.poll_interval)
            resolved = False
            if not too_few:
                for attempt in range(attempts):
                    if degenerate:
                        mal = sampler.low
                    else:
                        mal = sampler.sample_at(
                            rng.uniform_at(base + rnd * attempts + attempt))
                    means = gains[mal] - shift
                    if spread_ok[mal] and abs(means) <= bound:
                        shift += means
                        resolved = True
                        break
            if not resolved:
                shift = panic_target
                panics += 1
        shift_list[pos] = shift
        panic_list[pos] = panics
    return shift_list, panic_list, rounds


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class FleetEngine:
    """Runs one cohort of the fleet and reduces it to aggregate metrics."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.np = resolve_backend(config.backend)

    # -- helpers -----------------------------------------------------------
    def _group_indices(self, ks: Any) -> dict[int, Any]:
        """Ascending cohort indices grouped by poison query (hence by
        composition): slices of one stable sort on numpy, lists on python."""
        np = self.np
        if np is not None:
            # The narrowest dtype that holds every k sorts by radix.
            ks = ks.astype(np.min_scalar_type(self.config.policy.query_count))
            order = np.argsort(ks, kind="stable")
            values, firsts, counts = np.unique(ks[order], return_index=True,
                                               return_counts=True)
            return {k: order[first:first + count] for k, first, count
                    in zip(values.tolist(), firsts.tolist(), counts.tolist())}
        groups: dict[int, list[int]] = {}
        for index, k in enumerate(ks):
            groups.setdefault(int(k), []).append(index)
        return groups

    # -- runs --------------------------------------------------------------
    def run(self) -> dict[str, Any]:
        """Aggregate metrics only — never materialises per-client records."""
        return self._run(detailed=False)[0]

    def run_detailed(self) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """Aggregates plus one record per client (gate / debugging sizes)."""
        return self._run(detailed=True)

    def _run(self, detailed: bool) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        config = self.config
        np = self.np
        starts, ks, poisoned = cohort_poison_queries(config, np)
        groups = self._group_indices(ks)

        compositions = {k: compose_client(config.policy, k) for k in groups}
        histogram = [0] * (config.policy.query_count + 1)
        benign_total = 0
        malicious_total = 0
        cache_hits_total = 0
        two_thirds = 0
        fraction_terms: list[float] = []
        for k, indices in groups.items():
            comp = compositions[k]
            count = len(indices)
            histogram[k] += count
            benign_total += comp.benign * count
            malicious_total += comp.malicious * count
            cache_hits_total += comp.cache_hits * count
            if comp.attacker_has_two_thirds:
                two_thirds += count
            if comp.total:
                fraction_terms.append(count * comp.malicious_fraction)

        clients = config.clients
        metrics: dict[str, Any] = {
            "clients": clients,
            "client_offset": config.client_offset,
            "population": config.total_population,
            "resolvers": config.resolvers,
            "poisoned_resolvers": len(poisoned),
            "clients_poisoned": clients - len(groups.get(0, ())),
            "poison_histogram": histogram,
            "pool_benign_total": benign_total,
            "pool_malicious_total": malicious_total,
            "cache_hits_total": cache_hits_total,
            "clients_attacker_two_thirds": two_thirds,
            "attacker_fraction_sum": math.fsum(fraction_terms),
        }
        metrics["mean_attacker_fraction"] = (
            metrics["attacker_fraction_sum"] / clients if clients else 0.0)

        # Vectorized runs have no simulator to carry the facade; the fleet
        # engine reports through whatever observability is installed.  Pure
        # accounting — no RNG, nothing in the returned metrics — so cohort
        # results stay byte-identical with the facade on or off.
        obs = _current_obs()
        if obs.enabled:
            backend = "numpy" if np is not None else "python"
            obs.metrics.counter("fleet.cohorts_run", backend=backend).inc()
            obs.metrics.counter("fleet.clients_simulated").inc(clients)
            obs.metrics.counter("fleet.clients_poisoned").inc(
                metrics["clients_poisoned"])
            obs.metrics.counter("fleet.resolvers_poisoned").inc(len(poisoned))

        shifts: dict[int, tuple[Any, Any, int]] = {}
        if config.run_time_shift:
            tallies: list[tuple[float, int]] = []
            panic_total = 0
            updates_total = 0
            for k, indices in groups.items():
                achieved, panics, updates = shifts[k] = _run_group_shift(
                    config, compositions[k], indices, np)
                # A group's clients share a handful of distinct shifts.
                tallies.extend(Counter(achieved).items() if np is None else zip(
                    *(column.tolist() for column in np.unique(achieved, return_counts=True))))
                panic_total += int(panics.sum()) if np is not None else sum(panics)
                updates_total += updates * len(indices)
            metrics.update({
                "updates_run_total": updates_total,
                "panic_rounds_total": panic_total,
                "clients_shift_achieved": sum(
                    count for shift, count in tallies
                    if shift_reached(shift, config.target_shift)),
                # Exact, hence the correctly rounded sum of every client's shift.
                "achieved_shift_sum": float(sum(Fraction(shift) * count
                                                for shift, count in tallies)),
            })
            metrics["mean_achieved_shift"] = (
                metrics["achieved_shift_sum"] / clients if clients else 0.0)

        if not detailed:
            return metrics, []

        # Python scalars at the record boundary, scattered back by cohort index.
        listed = (lambda values: values.tolist()) if np is not None else list
        start_list = listed(starts)
        records: list[dict[str, Any]] = [{}] * clients
        for k, indices in groups.items():
            comp = compositions[k]
            if config.run_time_shift:
                achieved, panics, updates = shifts[k]
                achieved, panics = listed(achieved), listed(panics)
            for pos, index in enumerate(listed(indices)):
                gid = config.client_offset + index
                record: dict[str, Any] = {
                    "client": gid,
                    "start": start_list[index],
                    "resolver": gid % config.resolvers,
                    "poison_at_query": k or None,
                    "benign": comp.benign,
                    "malicious": comp.malicious,
                    "pool_size": comp.total,
                    "cache_hits": comp.cache_hits,
                    "poisoned_queries": comp.poisoned_queries(),
                    "attacker_two_thirds": comp.attacker_has_two_thirds,
                }
                if config.run_time_shift:
                    record.update({
                        "achieved_shift": achieved[pos],
                        "shift_achieved": shift_reached(achieved[pos], config.target_shift),
                        "updates_run": updates,
                        "panic_rounds": panics[pos],
                    })
                records[index] = record
        return metrics, records
