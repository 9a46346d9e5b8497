"""Resilience "defenses": availability hardening under degraded networks.

These columns answer a different question than the RFC 5452 set.  Classic
defenses reduce an attacker's per-response success odds; the resilience
defenses keep the *resolver answering at all* when the network misbehaves —
which is exactly the regime the fault-injection matrix explores
(:mod:`repro.faults`).  Both are deliberately double-edged:

* **serve_stale** (RFC 8767) answers from expired cache entries for up to
  an hour past expiry while the authoritative path is unreachable.  Under a
  nameserver outage it preserves availability — but if the expired entry is
  *poisoned*, staleness prolongs the attacker's tenancy beyond the record
  TTL the attacker paid for;
* **upstream_retries** retransmits a timed-out upstream query twice, after
  0.25 s and 0.5 s of backoff plus up to 0.05 s of jitter each.  Under loss
  it recovers queries that would have SERVFAILed — but every retransmission
  is one more transaction a blind spoofer can race, so the defense
  *increases* the classic §III-A attack surface in proportion to the loss
  rate.

Each defense is one switch: the resolver reads it from its own stack when
it is built (:class:`~repro.dns.resolver.RecursiveResolver`), so a testbed
and a hand-built resolver behave the same.  The schedule and the window are
constants of :mod:`repro.dns.resolver` and :mod:`repro.dns.cache`.
Surfacing them as matrix columns lets the sweep quantify both edges.
"""

from __future__ import annotations

from .base import Defense
from .registry import register_defense


@register_defense
class ServeStale(Defense):
    """RFC 8767 serve-stale: answer from expired entries on upstream failure.

    The resolver serves the stale answer with a short TTL and refreshes in
    the background, so availability survives a nameserver outage window —
    at the price that a poisoned entry also outlives its TTL.
    """

    name = "serve_stale"


@register_defense
class UpstreamRetries(Defense):
    """Retry timed-out upstream queries with exponential backoff + jitter."""

    name = "upstream_retries"
