"""Protocol-hardening defenses beyond the classic RFC 5452 set.

Each models a deployed or proposed DNS hardening and blocks exactly the
vectors it blocks in the paper's analysis:

* **DNS-0x20** and **DNS cookies** add entropy a *blind* off-path spoofer
  cannot guess — but both are echoed by a BGP hijacker (who receives the
  query) and both live in the genuine first fragment of a fragmented
  response, so neither stops the paper's two vectors;
* a **PMTU floor** refuses to fragment responses at all, killing the
  defragmentation vector at the source;
* **response signing** (the DNSSEC model) protects the answer *content*,
  which is the only thing that defeats both vectors — matching the paper's
  own conclusion that DNSSEC, not more entropy, is the real fix.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional

from ..dns.nameserver import DEFAULT_ZONE
from ..dns.records import RecordType, rrset_signature
from ..dns.wire import letter_count
from .base import Defense, QueryContext, ResponseContext
from .registry import register_defense

if TYPE_CHECKING:
    from ..experiments.testbed import Testbed


@register_defense
class DNS0x20Encoding(Defense):
    """Randomise the question name's letter cases; verify the echo (DNS-0x20).

    ``pool.ntp.org`` has ten letters, so the defense adds ~10 bits of entropy
    against blind spoofing.  Both the hijack and the fragmentation vector
    are unaffected: the hijacker echoes the question verbatim, and the case
    pattern sits in the question section — inside the genuine first fragment.
    """

    name = "dns_0x20"

    def on_outgoing_query(self, ctx: QueryContext) -> None:
        letters = letter_count(ctx.question.name)
        if letters == 0:
            return
        nonce = ctx.rng.getrandbits(letters)
        ctx.state[self.name] = nonce
        ctx.case_nonce = nonce or None

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        expected = ctx.query.state.get(self.name)
        if expected is None:
            return None
        if (ctx.response.case_nonce or 0) != expected:
            return "0x20 case pattern of the question was not echoed"
        return None


@register_defense
class DNSCookies(Defense):
    """Attach a per-(resolver, server) cookie to queries; require the echo.

    Models RFC 7873: the cookie is derived from a resolver-local secret and
    the server address, so a blind spoofer cannot produce it.  A hijacker
    receives the query — cookie included — and echoes it; the fragmentation
    attacker never touches it, because the simulation carries the cookie
    alongside the transaction id in the first (genuine) fragment.
    """

    name = "dns_cookies"

    def __init__(self) -> None:
        self._salt = "cookie-secret|unattached"

    def attach_testbed(self, testbed: Testbed) -> None:
        # Deterministic per (resolver, seed); secret by convention — no
        # attacker code ever reads it.
        self._salt = f"cookie-secret|{testbed.resolver.address}|{testbed.config.seed}"

    def _cookie_for(self, server_address: str) -> int:
        digest = hashlib.sha256(f"{self._salt}|{server_address}".encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big")

    def on_outgoing_query(self, ctx: QueryContext) -> None:
        cookie = self._cookie_for(ctx.nameserver_address)
        ctx.state[self.name] = cookie
        ctx.cookie = cookie

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        expected = ctx.query.state.get(self.name)
        if expected is None:
            return None
        if ctx.response.cookie != expected:
            return "response does not echo the query's DNS cookie"
        return None


@register_defense
class PMTUFloor(Defense):
    """Refuse to fragment DNS responses below a floor (anti-fragmentation).

    The companion measurement's core finding is that 16 of 30 pool.ntp.org
    nameservers fragment down to 548 bytes; a nameserver that enforces a
    1500-byte floor never emits the fragmented response the splice needs.
    """

    name = "pmtu_floor"

    #: Smallest MTU, in bytes, the nameserver fragments responses to.
    FLOOR = 1500

    def attach_testbed(self, testbed: Testbed) -> None:
        nameserver = testbed.nameserver
        if nameserver.min_supported_mtu < self.FLOOR:
            nameserver.min_supported_mtu = self.FLOOR
            testbed.network.set_path_mtu(nameserver.address, self.FLOOR)


@register_defense
class ResponseSigning(Defense):
    """Zone signing plus resolver-side validation (the DNSSEC model).

    ``attach_testbed`` gives the nameserver a zone key, a function of the
    seed (it then appends a signature record over each answer RRset);
    ``on_incoming_response`` recomputes and checks it.  A hijacker cannot
    sign, and a fragment splice changes the records the genuine signature
    covered — so this is the one
    hardening that stops both vectors, at the price the paper notes: it only
    helps where both zone and resolver deploy it.
    """

    name = "response_signing"

    def __init__(self) -> None:
        self._zone_key: Optional[str] = None

    def attach_testbed(self, testbed: Testbed) -> None:
        self._zone_key = f"zsk|{DEFAULT_ZONE}|{testbed.config.seed}"
        testbed.nameserver.zone_key = self._zone_key

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[str]:
        if self._zone_key is None:
            return None
        qname = ctx.response.question.name
        a_records = [record for record in ctx.response.answers
                     if record.rtype == RecordType.A]
        if not a_records:
            return None
        expected = rrset_signature(self._zone_key, qname, a_records)
        signatures = [record.rdata for record in ctx.response.answers
                      if record.rtype == RecordType.TXT and record.name == qname]
        if expected not in signatures:
            return "answer RRset signature missing or invalid"
        return None
