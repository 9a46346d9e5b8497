"""Pool-side and NTP-side countermeasures: the §V mitigations and beyond.

The paper's §V proposes two changes to Chronos' pool generation — accept at
most 4 addresses from any single DNS response, and discard responses whose
TTL is suspiciously high.  Each is one :class:`Defense` here, switched on by
its registry name (``address_cap``, ``ttl_discard``); both numbers are the
constants of :mod:`repro.defenses.base`.  The packet-level pool generator and
the fleet's closed form (:meth:`repro.population.batch.FleetPolicy.accepted`)
run the same classes, so both engines share one definition of each
mitigation.

:class:`MultiVantageCrossCheck` goes further than §V: it validates responses
(and pool admissions, and NTP samples) against what independent vantage
points observe about the zone — the published response profile (4 records,
150-second TTL) and roughly-true time.  It degrades the hijack vector's
*flooding* variant, but an attacker who mimics the public profile under a
sustained 24-hour hijack still owns the pool: the residual risk §V concedes
survives every pool-side defense.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..dns.records import RecordType
from .base import MAX_ADDRESSES, MAX_TTL, Defense, PoolAcceptContext, ResponseContext
from .registry import register_defense

if TYPE_CHECKING:
    from ..experiments.testbed import Testbed
    from ..ntp.query import TimeSample


@register_defense
class PerResponseAddressCap(Defense):
    """§V mitigation 1: accept at most 4 addresses per DNS response."""

    name = "address_cap"

    def on_pool_accept(self, ctx: PoolAcceptContext) -> None:
        ctx.addresses = ctx.addresses[:MAX_ADDRESSES]


@register_defense
class HighTTLDiscard(Defense):
    """§V mitigation 2: discard responses whose minimum TTL exceeds 3,600 s.

    The attack *needs* a TTL longer than the remaining generation window so
    that later hourly queries starve from cache; a response whose TTL dwarfs
    the zone's published 150 seconds is therefore discarded outright.
    """

    name = "ttl_discard"

    def on_pool_accept(self, ctx: PoolAcceptContext) -> None:
        if ctx.min_ttl is not None and ctx.min_ttl > MAX_TTL:
            ctx.discard(self.name, "high-ttl")


@register_defense
class MultiVantageCrossCheck(Defense):
    """Cross-check responses, pool admissions and NTP samples against vantage
    observations.

    What independent vantage points can corroborate about pool.ntp.org is its
    *published behaviour*: every response carries ``records_per_response``
    addresses under a short TTL, and the servers serve roughly true time.
    The defense captures that profile from the built testbed (standing in
    for out-of-band vantage queries) and rejects:

    * responses carrying more addresses than the profile, or a TTL above
      both ``TTL_TOLERANCE`` times the profile's and ``TTL_FLOOR`` seconds —
      which kills the 89-record / 2-day-TTL flood of §IV;
    * NTP samples whose offset exceeds ``MAX_SAMPLE_OFFSET`` seconds — a
      vantage majority would contradict them.

    It deliberately does *not* authenticate content, so a profile-mimicking
    attacker under a sustained hijack walks through — the residual attack.
    """

    name = "multi_vantage"

    TTL_TOLERANCE = 4.0
    TTL_FLOOR = 600
    MAX_SAMPLE_OFFSET = 60.0

    def __init__(self) -> None:
        self._expected_count: Optional[int] = None
        self._expected_ttl: Optional[int] = None

    def attach_testbed(self, testbed: Testbed) -> None:
        self._expected_count = testbed.nameserver.records_per_response
        self._expected_ttl = testbed.nameserver.ttl

    @property
    def max_plausible_ttl(self) -> Optional[int]:
        if self._expected_ttl is None:
            return None
        return max(int(self._expected_ttl * self.TTL_TOLERANCE), self.TTL_FLOOR)

    def _profile_violation(self, count: int, highest_ttl: Optional[int]) -> Optional[str]:
        if self._expected_count is not None and count > self._expected_count:
            return (f"{count} addresses in one response; vantage points "
                    f"observe at most {self._expected_count}")
        limit = self.max_plausible_ttl
        # Any record far above the published TTL is implausible — checking
        # the *highest* TTL also catches spliced responses whose genuine
        # first-fragment records still carry the benign TTL.
        if limit is not None and highest_ttl is not None and highest_ttl > limit:
            return (f"TTL {highest_ttl} far above the vantage-observed "
                    f"{self._expected_ttl}")
        return None

    @staticmethod
    def _highest_a_ttl(response) -> Optional[int]:
        ttls = [record.ttl for record in response.answers
                if record.rtype == RecordType.A]
        return max(ttls) if ttls else None

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        a_count = sum(1 for record in ctx.response.answers
                      if record.rtype == RecordType.A)
        if a_count == 0:
            return None
        return self._profile_violation(a_count, self._highest_a_ttl(ctx.response))

    def on_pool_accept(self, ctx: PoolAcceptContext) -> None:
        highest = (self._highest_a_ttl(ctx.response) if ctx.response is not None
                   else ctx.min_ttl)
        reason = self._profile_violation(len(ctx.addresses), highest)
        if reason is not None:
            ctx.discard(self.name, reason)

    def on_ntp_sample(self, sample: TimeSample) -> Optional[str]:
        if abs(sample.offset) > self.MAX_SAMPLE_OFFSET:
            return (f"sample offset {sample.offset:.1f}s contradicts the "
                    f"vantage reference clocks")
        return None

