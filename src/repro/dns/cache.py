"""A TTL-driven DNS cache.

The cache is the piece of DNS state the whole attack pivots on.  The paper's
observation (§IV) is that the attacker sets the TTL of the poisoned records
*above 24 hours*, so that every one of Chronos' subsequent hourly pool
queries is answered from the resolver's cache — the benign nameservers never
get another chance to contribute servers to the pool.

The cache therefore tracks, per entry, the simulated insertion time, the
original TTL and whether the entry was produced by a poisoned response, so
experiments can report exactly which pool members were attacker-controlled.
An entry keeps its encoded answer section split at the TTL fields, so a hit
re-serves stored wire (:meth:`~repro.dns.message.DNSMessage.encode_cached_answer`);
it lives on the entry, so a re-inserted name never serves an old template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .records import RecordType, ResourceRecord
from .wire import normalise_name

#: RFC 8767 serve-stale: how long past expiry an entry stays servable
#: (the RFC suggests 1-3 days; an hour keeps experiments snappy).
SERVE_STALE_WINDOW = 3600.0


@dataclass
class CacheEntry:
    """All records cached for one (name, type) key, from one response."""

    records: tuple[ResourceRecord, ...]
    inserted_at: float
    ttl: int
    poisoned: bool = False
    #: Answer-section start offset -> the records' encoded answer section,
    #: split at the TTL fields (filled on the first hit at that offset).
    answer_templates: dict[int, tuple[bytes, ...]] = field(default_factory=dict, repr=False)

    def expires_at(self) -> float:
        return self.inserted_at + self.ttl

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at()

    def remaining_ttl(self, now: float) -> int:
        return max(0, int(self.expires_at() - now))


class DNSCache:
    """A per-resolver cache keyed by (normalised name, record type).

    An entry lives for the minimum TTL of its records.  A resolver-side TTL
    cap (a §V direction: below 24 h it ends the "answer everything from
    cache" amplification) is the ``cache_ttl_cap`` defense, which rewrites
    the TTLs before they are cached.
    """

    def __init__(self, serve_stale: bool = False) -> None:
        #: RFC 8767: whether an expired entry stays retrievable via
        #: :meth:`lookup_stale` for :data:`SERVE_STALE_WINDOW` seconds
        #: (``False`` = classic immediate eviction).
        self.serve_stale = serve_stale
        self._entries: dict[tuple[str, RecordType], CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, name: str, rtype: RecordType) -> tuple[str, RecordType]:
        return (normalise_name(name), rtype)

    def insert(self, name: str, rtype: RecordType, records: list[ResourceRecord],
               now: float, poisoned: bool = False) -> CacheEntry:
        """Cache the records of one response under (name, rtype).

        The entry TTL is the minimum record TTL.
        """
        if not records:
            raise ValueError("cannot cache an empty record set")
        ttl = min(record.ttl for record in records)
        entry = CacheEntry(records=tuple(records), inserted_at=now, ttl=ttl, poisoned=poisoned)
        self._entries[self._key(name, rtype)] = entry
        return entry

    def lookup(self, name: str, rtype: RecordType, now: float) -> Optional[CacheEntry]:
        """Return the live entry for (name, rtype), or ``None`` on miss/expiry.

        Expired entries are evicted — unless they are still inside the
        serve-stale window, in which case the lookup is a miss (fresh data
        is wanted) but the entry survives for :meth:`lookup_stale`.
        """
        key = self._key(name, rtype)
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.is_expired(now):
            if self._past_stale_window(entry, now):
                del self._entries[key]
            return None
        return entry

    def lookup_stale(self, name: str, rtype: RecordType, now: float) -> Optional[CacheEntry]:
        """An *expired* entry still inside the serve-stale window, or ``None``.

        The RFC 8767 fallback path: callers try :meth:`lookup` first and
        fall back to this when they would otherwise re-resolve.  Entries
        past the window are evicted here exactly as :meth:`lookup` does.
        """
        key = self._key(name, rtype)
        entry = self._entries.get(key)
        if entry is None or not entry.is_expired(now):
            return None
        if self._past_stale_window(entry, now):
            del self._entries[key]
            return None
        return entry

    def _past_stale_window(self, entry: CacheEntry, now: float) -> bool:
        """Whether an expired entry can no longer be served stale."""
        return not self.serve_stale or now >= entry.expires_at() + SERVE_STALE_WINDOW

    def peek(self, name: str, rtype: RecordType) -> Optional[CacheEntry]:
        """Return the entry without expiring it."""
        return self._entries.get(self._key(name, rtype))

    def flush(self) -> None:
        """Drop every entry (resolver restart)."""
        self._entries.clear()

    def evict(self, name: str, rtype: RecordType) -> None:
        """Remove one entry if present."""
        self._entries.pop(self._key(name, rtype), None)
