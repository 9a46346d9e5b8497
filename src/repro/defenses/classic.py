"""The classic off-path defenses every real resolver already deploys.

These are the protections the paper's §II takes as *given* — and then goes
around: random transaction ids and source ports (RFC 5452), response
matching (source address + question echo), and the resolver-side caps some
operators add on top.  :class:`repro.dns.resolver.RecursiveResolver` starts
every stack with ``random_txid``, ``random_source_port`` and
``response_matching``; the rest are named in an experiment's ``defenses``.
"""

from __future__ import annotations

from typing import Optional

from .base import MAX_ADDRESSES, MAX_TTL, Defense, QueryContext, ResponseContext
from .registry import register_defense


@register_defense
class RandomTransactionID(Defense):
    """Randomise the 16-bit DNS transaction id per query (RFC 5452)."""

    name = "random_txid"

    def on_outgoing_query(self, ctx: QueryContext) -> None:
        ctx.transaction_id = ctx.rng.randrange(0, 0x10000)


@register_defense
class RandomSourcePort(Defense):
    """Randomise the resolver's UDP source port per query (RFC 5452)."""

    name = "random_source_port"

    def on_outgoing_query(self, ctx: QueryContext) -> None:
        ctx.source_port = ctx.rng.randrange(20000, 60000)


@register_defense
class ResponseMatching(Defense):
    """Match a response's port, source address and question to the query.

    This is the validation the paper's two vectors bypass wholesale: after a
    BGP hijack the attacker *receives* the query and can echo everything, and
    in the fragmentation attack every matched field lives in the genuine
    first fragment.
    """

    name = "response_matching"

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        if ctx.datagram.dst_port != ctx.query.source_port:
            return "destination port does not match the query's source port"
        if ctx.datagram.src_ip != ctx.query.nameserver_address:
            return "source address is not the queried nameserver"
        if not ctx.response.matches_query(ctx.query.query):
            return "transaction id or question mismatch"
        return None


@register_defense
class FragmentedResponseRejection(Defense):
    """Refuse responses reassembled with spoofed fragments.

    The companion measurement found ~10% of resolvers do not accept
    fragmented responses at all; they are immune to the defragmentation
    vector.  The simulation models that hardening as rejecting any response
    whose reassembly involved a spoofed fragment — a benign-path resolver
    never sees the difference, so the observable effect is identical.
    """

    name = "fragment_rejection"

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        if ctx.poisoned:
            return "response was reassembled from injected fragments"
        return None


@register_defense
class ResponseRecordCap(Defense):
    """Accept at most 4 records from a single response (resolver side)."""

    name = "response_record_cap"

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        ctx.answers = ctx.answers[:MAX_ADDRESSES]


@register_defense
class CacheTTLCap(Defense):
    """Cache no response for longer than 3,600 s (resolver side).

    A cap below the 24-hour pool-generation window bounds how long a single
    poisoned entry can starve the hourly queries — one of the §V directions.
    """

    name = "cache_ttl_cap"

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        ctx.answers = [record if record.ttl <= MAX_TTL
                       else record.with_ttl(MAX_TTL)
                       for record in ctx.answers]

