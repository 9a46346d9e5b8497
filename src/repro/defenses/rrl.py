"""Response-rate limiting (RRL) as a stack member.

The serving-layer counterpart of the client-side defenses: instead of
hardening the resolver's queries, RRL hardens the *nameserver's* answer
rate.  A per-source-prefix token bucket (BIND's ``rate-limit`` block)
lets any /24 receive one UDP response per second after a burst of two;
over-limit responses are dropped, except that every second one goes out
truncated (TC=1) to push legitimate resolvers onto TCP where the limiter
does not apply.  Nothing leaks through at full size.  The bucket is fixed:
:class:`~repro.dns.nameserver.ResponseRateLimiter` holds its constants.

Against this paper's attacks the interaction is two-sided:

* the fragmentation race needs the nameserver to keep *emitting* large
  fragmenting responses to the resolver — a sustained trigger burst
  (the ``sustained_load`` attack row) runs straight into the bucket, so
  most races never see a spoofable response at all;
* but RRL alone answers with plaintext once the bucket refills, so the
  ``downgrade`` attacker is unaffected — and an *opportunistic* DoT
  resolver behind RRL is still downgradeable.  Only ``rrl_plus_dot``
  (strict) closes that row; the matrix columns make the pairing visible.

All bucket state is deterministic (no RNG), so matrix digests stay
byte-identical across worker counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dns.nameserver import ResponseRateLimiter
from .base import Defense
from .registry import register_defense

if TYPE_CHECKING:
    from ..experiments.testbed import Testbed, TestbedConfig


@register_defense
class ResponseRateLimit(Defense):
    """Per-source-prefix UDP response-rate limiting on the nameserver."""

    name = "response_rate_limit"

    def configure_testbed(self, config: TestbedConfig) -> None:
        # The TC=1 slip path needs a stream listener to land on.
        config.nameserver_transports = tuple(
            dict.fromkeys((*config.nameserver_transports, "tcp")))

    def attach_testbed(self, testbed: Testbed) -> None:
        testbed.nameserver.rate_limiter = ResponseRateLimiter()
