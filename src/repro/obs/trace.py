"""Structured event tracing stamped with *simulated* time.

The tracer records two event shapes — instants (``ph="i"``) and complete
spans (``ph="X"``, with a duration) — into a bounded ring buffer.  Every
event is stamped by the tracer's ``clock``, which the deterministic path
binds to the owning :class:`~repro.netsim.simulator.Simulator`'s clock, so
a trace of a seeded run is itself a pure function of the seed: no wall
clock ever reaches a recorded timestamp.  (Wall-clock telemetry — worker
utilization, per-task seconds — lives in
:class:`~repro.experiments.scheduler.SweepStats`, deliberately outside the
trace.)

Two export formats:

* **JSONL** — one event per line, loss-free round trip via
  :meth:`Tracer.to_jsonl` / :func:`events_from_jsonl`;
* **Chrome trace-event JSON** — :meth:`Tracer.chrome_trace` emits the
  ``traceEvents`` array format that https://ui.perfetto.dev and
  ``chrome://tracing`` open directly.  Event categories become named
  tracks (one ``tid`` per category), timestamps are converted from
  simulated seconds to microseconds.

The ring buffer (``capacity`` events) makes tracing safe to leave enabled
through multi-hour simulated sweeps: old events are evicted, the eviction
count is reported, and memory stays bounded.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 65536


def _zero_clock() -> float:
    return 0.0


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event; ``args`` is an ordered tuple of (key, value)."""

    name: str
    phase: str  # "i" (instant) or "X" (complete span with duration)
    ts: float  # simulated seconds
    category: str = ""
    dur: float = 0.0
    args: tuple[tuple[str, object], ...] = ()
    #: Monotone sequence number: total order for events at the same instant.
    seq: int = 0

    def arg(self, key: str, default: object = None) -> object:
        for k, v in self.args:
            if k == key:
                return v
        return default

    @property
    def args_dict(self) -> dict[str, object]:
        return dict(self.args)

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name, "ph": self.phase, "ts": self.ts,
            "cat": self.category, "dur": self.dur,
            "args": [[k, v] for k, v in self.args], "seq": self.seq,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> TraceEvent:
        data = json.loads(line)
        return cls(
            name=data["name"], phase=data["ph"], ts=data["ts"],
            category=data.get("cat", ""), dur=data.get("dur", 0.0),
            args=tuple((k, v) for k, v in data.get("args", ())),
            seq=data.get("seq", 0),
        )


class Tracer:
    """Bounded recorder of :class:`TraceEvent`\\ s.

    ``clock`` supplies timestamps; :meth:`use_clock` rebinds it (the
    simulator binds itself at construction).  A disabled tracer records
    nothing and costs one attribute check per call — instrumented sites
    additionally guard with ``obs.enabled`` so the disabled path never
    even builds the args.
    """

    __slots__ = ("enabled", "clock", "capacity", "_events", "_seq",
                 "events_recorded", "events_evicted")

    def __init__(self, clock: Callable[[], float] | None = None,
                 capacity: int = DEFAULT_CAPACITY, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.enabled = enabled
        self.clock = clock or _zero_clock
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.events_recorded = 0
        self.events_evicted = 0

    def use_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    # -- recording -------------------------------------------------------------
    def instant(self, name: str, category: str = "", **args: object) -> None:
        """Record a zero-duration event at the current simulated time."""
        if not self.enabled:
            return
        self._append(TraceEvent(name=name, phase="i", ts=self.clock(),
                                category=category,
                                args=tuple(args.items()), seq=self._seq))

    def complete(self, name: str, start: float, category: str = "",
                 **args: object) -> None:
        """Record a span from ``start`` (simulated seconds) to now."""
        if not self.enabled:
            return
        now = self.clock()
        self._append(TraceEvent(name=name, phase="X", ts=start,
                                dur=max(now - start, 0.0), category=category,
                                args=tuple(args.items()), seq=self._seq))

    @contextmanager
    def span(self, name: str, category: str = "", **args: object) -> Iterator[None]:
        """Context manager recording a complete span around its body."""
        if not self.enabled:
            yield
            return
        start = self.clock()
        try:
            yield
        finally:
            self.complete(name, start, category=category, **args)

    def _append(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.events_evicted += 1
        self._events.append(event)
        self._seq += 1
        self.events_recorded += 1

    # -- access ----------------------------------------------------------------
    def events(self) -> tuple[TraceEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.events_evicted = 0
        self.events_recorded = 0

    # -- JSONL export ----------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(event.to_json() for event in self._events)

    def write_jsonl(self, path: str) -> None:
        with Path(path).open("w") as handle:
            for event in self._events:
                handle.write(event.to_json() + "\n")

    # -- Chrome trace-event export ---------------------------------------------
    def chrome_trace(self) -> dict:
        return chrome_trace(self._events)

    def write_chrome_trace(self, path: str) -> None:
        with Path(path).open("w") as handle:
            json.dump(self.chrome_trace(), handle)


def events_from_jsonl(text: str) -> list[TraceEvent]:
    """Parse events written by :meth:`Tracer.to_jsonl`/``write_jsonl``."""
    return [TraceEvent.from_json(line)
            for line in text.splitlines() if line.strip()]


def chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Render events as a Chrome trace-event JSON object.

    The one process is named ``repro``; categories map to threads (one
    Perfetto track per category, named via ``thread_name`` metadata);
    simulated seconds map to microseconds, the unit the format requires.
    Open the resulting file directly in https://ui.perfetto.dev.
    """
    trace_events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "repro"},
    }]
    tids: dict[str, int] = {}
    for event in events:
        category = event.category or "events"
        tid = tids.get(category)
        if tid is None:
            tid = tids[category] = len(tids) + 1
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": category},
            })
        rendered: dict = {
            "name": event.name,
            "ph": event.phase,
            "ts": event.ts * 1e6,
            "pid": 1,
            "tid": tid,
            "cat": category,
            "args": event.args_dict,
        }
        if event.phase == "X":
            rendered["dur"] = event.dur * 1e6
        elif event.phase == "i":
            rendered["s"] = "t"  # thread-scoped instant
        trace_events.append(rendered)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def ordered(events: Sequence[TraceEvent]) -> list[TraceEvent]:
    """Events sorted by (timestamp, sequence) — a stable total order."""
    return sorted(events, key=lambda event: (event.ts, event.seq))
