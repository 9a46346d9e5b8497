"""Reconstruct per-query poisoning-race timelines from a trace.

The paper's §IV mechanics are a race: the attacker's burst (spoofed
fragments, hijacked answers, SYN floods) against the legitimate response,
refereed by the resolver's defense stack.  The raw trace records each leg
as it happens; this module folds the ``dns.*`` / ``attack.*`` events back
into one :class:`QueryRace` per upstream query — a readable artifact
showing, in simulated-time order, when the attacker burst landed, when
each candidate response arrived, which defense rejected what (and why),
and which side ultimately won the cache.

Event vocabulary consumed (all emitted by the instrumented stack):

========================  ====================================================
``dns.query.sent``        resolver forwarded a query upstream
``dns.response.*``        candidate / rejected / accepted / truncated /
                          unmatched upstream responses
``dns.query.timeout``     the query expired unanswered
``dns.cache.write``       accepted answers entered the cache
``attack.*``              attacker activity (frag bursts, SYN floods,
                          hijacked answers) — attached to every query race
                          it temporally overlaps
========================  ====================================================
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from .trace import TraceEvent, ordered

#: How long before a query's send time an attack event is still considered
#: part of its race (spoofed fragments are planted *ahead* of the query).
ATTACK_LOOKBACK_SECONDS = 120.0


@dataclass(frozen=True)
class TimelineEntry:
    """One step of a race, in simulated time."""

    ts: float
    kind: str
    detail: dict

    def formatted(self) -> str:
        detail = ", ".join(f"{key}={value}" for key, value in self.detail.items()
                           if key not in ("qname", "txid"))
        return f"  t={self.ts:>10.4f}s  {self.kind:<24} {detail}"


@dataclass
class QueryRace:
    """The reconstructed poisoning race of one upstream query."""

    qname: str
    txid: int
    sent_at: float
    entries: list[TimelineEntry] = field(default_factory=list)

    # -- outcome ---------------------------------------------------------------
    @property
    def accepted(self) -> Optional[TimelineEntry]:
        """The accepted-response entry, if the query was answered."""
        for entry in self.entries:
            if entry.kind == "response accepted":
                return entry
        return None

    @property
    def winner(self) -> Optional[str]:
        """``"attacker"`` / ``"legitimate"`` / ``None`` (unanswered)."""
        accepted = self.accepted
        if accepted is None:
            return None
        return "attacker" if accepted.detail.get("poisoned") else "legitimate"

    @property
    def rejections(self) -> list[TimelineEntry]:
        """Defense verdicts that rejected a candidate, in time order."""
        return [entry for entry in self.entries if entry.kind == "response rejected"]

    @property
    def deciding_verdict(self) -> Optional[TimelineEntry]:
        """The defense verdict that decided the race.

        When the attacker's candidate was rejected, that rejection is the
        verdict that saved the cache; when the attacker won, it is the
        acceptance itself.
        """
        poisoned_rejections = [entry for entry in self.rejections
                               if entry.detail.get("poisoned")
                               or entry.detail.get("spoofed")]
        if poisoned_rejections:
            return poisoned_rejections[0]
        return self.accepted

    @property
    def attack_entries(self) -> list[TimelineEntry]:
        return [entry for entry in self.entries if entry.kind.startswith("attack")]

    # -- rendering -------------------------------------------------------------
    def formatted(self) -> list[str]:
        winner = self.winner or "unanswered"
        lines = [f"race: {self.qname} txid={self.txid} "
                 f"sent at t={self.sent_at:.4f}s — winner: {winner}"]
        lines.extend(entry.formatted() for entry in self.entries)
        verdict = self.deciding_verdict
        if verdict is not None and verdict.kind == "response rejected":
            lines.append(f"  decided by: {verdict.detail.get('defense')} "
                         f"({verdict.detail.get('reason')})")
        return lines


_DNS_KINDS = {
    "dns.response.candidate": "response candidate",
    "dns.response.rejected": "response rejected",
    "dns.response.accepted": "response accepted",
    "dns.response.truncated": "response truncated",
    "dns.query.timeout": "query timeout",
    "dns.cache.write": "cache write",
}

_ATTACK_KINDS = {
    "attack.frag_burst": "attack: fragment burst",
    "attack.syn_flood": "attack: SYN flood",
    "attack.hijack_answer": "attack: hijacked answer",
    "attack.spoof_burst": "attack: spoofed responses",
    "attack.bgp_hijack": "attack: BGP hijack",
}


def build_race_timelines(events: Sequence[TraceEvent]) -> list[QueryRace]:
    """Fold trace events into one :class:`QueryRace` per upstream query.

    Races are keyed by ``(txid, qname)`` — the same key the resolver uses
    for its pending-query table — and returned in query-send order.
    Attack events carry no query key; each is attached to every race it
    temporally overlaps (from :data:`ATTACK_LOOKBACK_SECONDS` before the
    send to the race's last DNS event), which is the attacker's actual
    relationship to the race: fragments are planted before the query they
    poison.
    """
    races: list[QueryRace] = []
    open_races: dict[tuple[int, str], QueryRace] = {}
    attack_events: list[TraceEvent] = []
    for event in ordered(events):
        if event.name == "dns.query.sent":
            race = QueryRace(qname=str(event.arg("qname")),
                             txid=int(event.arg("txid", 0)),  # type: ignore[arg-type]
                             sent_at=event.ts)
            race.entries.append(TimelineEntry(event.ts, "query sent", event.args_dict))
            open_races[(race.txid, race.qname)] = race
            races.append(race)
        elif event.name in _DNS_KINDS:
            key = (int(event.arg("txid", 0)), str(event.arg("qname")))  # type: ignore[arg-type]
            race = open_races.get(key)
            if race is not None:
                race.entries.append(TimelineEntry(
                    event.ts, _DNS_KINDS[event.name], event.args_dict))
        elif event.name in _ATTACK_KINDS:
            attack_events.append(event)

    for event in attack_events:
        kind = _ATTACK_KINDS[event.name]
        for race in races:
            last_ts = race.entries[-1].ts if race.entries else race.sent_at
            if race.sent_at - ATTACK_LOOKBACK_SECONDS <= event.ts <= last_ts:
                race.entries.append(TimelineEntry(event.ts, kind, event.args_dict))

    for race in races:
        race.entries.sort(key=lambda entry: entry.ts)
    return races


def poisoning_races(events: Sequence[TraceEvent]) -> list[QueryRace]:
    """Only the races an attacker actually contested."""
    return [race for race in build_race_timelines(events)
            if race.attack_entries or race.winner == "attacker"
            or any(entry.detail.get("poisoned") for entry in race.entries)]


def format_races(events: Sequence[TraceEvent]) -> str:
    """A printable report of every contested race in a trace."""
    races = poisoning_races(events)
    if not races:
        return "no races recorded"
    blocks = ["\n".join(race.formatted()) for race in races]
    return "\n\n".join(blocks)
