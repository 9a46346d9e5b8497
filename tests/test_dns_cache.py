"""Unit tests for the TTL-driven DNS cache."""

from __future__ import annotations

import pytest

from repro.dns.cache import DNSCache
from repro.dns.records import RecordType, a_record


def records(count=2, ttl=150, name="pool.ntp.org"):
    return [a_record(name, f"10.0.0.{i + 1}", ttl) for i in range(count)]


def test_miss_on_empty_cache():
    cache = DNSCache()
    assert cache.lookup("pool.ntp.org", RecordType.A, now=0.0) is None


def test_insert_then_hit():
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(), now=0.0)
    entry = cache.lookup("pool.ntp.org", RecordType.A, now=10.0)
    assert entry is not None
    assert len(entry.records) == 2
    assert len(cache) == 1


def test_lookup_is_case_insensitive():
    cache = DNSCache()
    cache.insert("Pool.NTP.org", RecordType.A, records(), now=0.0)
    assert cache.lookup("pool.ntp.org.", RecordType.A, now=1.0) is not None


def test_entry_expires_at_ttl():
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(ttl=150), now=0.0)
    assert cache.lookup("pool.ntp.org", RecordType.A, now=149.0) is not None
    assert cache.lookup("pool.ntp.org", RecordType.A, now=150.0) is None
    assert cache.peek("pool.ntp.org", RecordType.A) is None   # evicted


def test_entry_ttl_is_minimum_of_record_ttls():
    cache = DNSCache()
    mixed = [a_record("pool.ntp.org", "10.0.0.1", 150),
             a_record("pool.ntp.org", "10.0.0.2", 60)]
    entry = cache.insert("pool.ntp.org", RecordType.A, mixed, now=0.0)
    assert entry.ttl == 60


def test_remaining_ttl_decreases_with_time():
    cache = DNSCache()
    entry = cache.insert("pool.ntp.org", RecordType.A, records(ttl=100), now=0.0)
    assert entry.remaining_ttl(now=0.0) == 100
    assert entry.remaining_ttl(now=40.0) == 60
    assert entry.remaining_ttl(now=200.0) == 0


def test_high_ttl_entry_survives_24h_without_cap():
    """The attack's amplifier: a >24h TTL keeps serving for the whole window."""
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(ttl=2 * 86400), now=0.0)
    for hour in range(1, 25):
        assert cache.lookup("pool.ntp.org", RecordType.A, now=hour * 3600.0) is not None


def test_benign_short_ttl_misses_every_hour():
    """pool.ntp.org's real 150 s TTL means every hourly query is a miss."""
    cache = DNSCache()
    hits = 0
    for hour in range(24):
        now = hour * 3600.0
        if cache.lookup("pool.ntp.org", RecordType.A, now=now) is None:
            cache.insert("pool.ntp.org", RecordType.A, records(ttl=150), now=now)
        else:
            hits += 1
    assert hits == 0


def test_reinsert_overwrites_previous_entry():
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(count=2), now=0.0)
    cache.insert("pool.ntp.org", RecordType.A, records(count=5), now=1.0)
    entry = cache.lookup("pool.ntp.org", RecordType.A, now=2.0)
    assert len(entry.records) == 5
    assert len(cache) == 1


def test_poisoned_flag_recorded_and_reported():
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(), now=0.0, poisoned=True)
    cache.insert("other.example", RecordType.A, records(name="other.example"), now=0.0)
    assert cache.peek("pool.ntp.org", RecordType.A).poisoned is True
    assert cache.peek("other.example", RecordType.A).poisoned is False


def test_types_are_cached_separately():
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(), now=0.0)
    assert cache.lookup("pool.ntp.org", RecordType.NS, now=0.0) is None


def test_empty_record_set_rejected():
    cache = DNSCache()
    with pytest.raises(ValueError):
        cache.insert("pool.ntp.org", RecordType.A, [], now=0.0)


def test_flush_and_evict():
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(), now=0.0)
    cache.evict("pool.ntp.org", RecordType.A)
    assert len(cache) == 0
    cache.insert("pool.ntp.org", RecordType.A, records(), now=0.0)
    cache.flush()
    assert len(cache) == 0


def test_peek_does_not_expire_entries():
    cache = DNSCache()
    cache.insert("pool.ntp.org", RecordType.A, records(ttl=150), now=0.0)
    # Long past the TTL, peek still sees the entry; only lookup evicts it.
    assert cache.peek("pool.ntp.org", RecordType.A) is not None
    assert cache.lookup("pool.ntp.org", RecordType.A, now=500.0) is None
    assert cache.peek("pool.ntp.org", RecordType.A) is None
