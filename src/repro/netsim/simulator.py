"""Discrete-event simulator used by every substrate in the reproduction.

The paper's attack is a timing interaction between three clocks of behaviour:
the hourly pool-generation schedule of Chronos, the TTL-driven expiry of DNS
cache entries and the per-query race an off-path attacker runs against the
authoritative nameserver.  All three are driven by the same simulated clock,
provided by :class:`Simulator`.

The simulator is intentionally small and deterministic: a binary heap of
timestamped events, a monotonically increasing simulated time, and explicit
seeding of every random decision through a single :class:`random.Random`
instance owned by the simulator.  Determinism matters because the experiment
harness compares attack outcomes across configurations; two runs with the
same seed and the same configuration must produce identical traces.

The heap is a hot path: a single matrix sweep steps through millions of
events, so entries are plain ``(time, sequence, event)`` tuples (tuple
comparison, no per-comparison dataclass ``__lt__``) and the event objects are
``__slots__``-based.  Cancelled events are removed lazily when they surface
at the heap top and compacted in bulk once they outnumber half of the queue,
so long sweeps with many timeout cancellations (every answered DNS query
cancels its timeout) do not accumulate dead heap entries.

One delivery event may carry several packets: packets due at one instant
and transmitted back to back share it (:meth:`Simulator.would_follow`).
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable
from typing import TYPE_CHECKING, Optional

from ..obs import current as _current_obs

if TYPE_CHECKING:
    from ..obs import Observability


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


class _ScheduledEvent:
    """Internal heap payload; ordering lives in the enclosing tuple."""

    __slots__ = ("time", "callback", "cancelled", "fired")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False


#: Heap entry: (time, sequence, event).  Events scheduled for the same
#: simulated instant fire in insertion order, which keeps traces stable.
_HeapEntry = tuple[float, int, _ScheduledEvent]


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule` allowing cancellation."""

    __slots__ = ("_event", "_simulator")

    def __init__(self, event: _ScheduledEvent, simulator: Simulator) -> None:
        self._event = event
        self._simulator = simulator

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if not event.fired:
            self._simulator._note_cancellation()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        """Simulated time at which the event is (or was) due."""
        return self._event.time


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  Components
        that need randomness (packet loss, server rotation, attacker
        spoofing races) must draw from :attr:`rng` so that the whole
        experiment is reproducible from a single seed.

    Simulated time starts at 0 seconds.
    """

    #: Compaction trigger: once at least this many cancelled events are
    #: pending *and* they make up half of the heap, the heap is rebuilt
    #: without them.  Small enough that long timeout-heavy sweeps stay lean,
    #: large enough that compaction cost is amortised over many cancels.
    COMPACT_THRESHOLD = 64

    def __init__(self, seed: int = 0, obs: Optional[Observability] = None) -> None:
        self._now = 0.0
        self._queue: list[_HeapEntry] = []
        self._sequence = itertools.count()
        self._running = False
        self._cancelled_pending = 0
        self.rng = random.Random(seed)
        self.seed = seed
        #: The event :meth:`schedule` pushed last (see :meth:`would_follow`).
        self._last_event: Optional[_ScheduledEvent] = None
        #: Total not-yet-fired events that were cancelled (dead heap entries
        #: created); compaction and lazy pops reclaim exactly these.
        self.events_cancelled = 0
        #: Observability facade: explicit, or whatever is currently
        #: installed (``repro.obs.current()`` — the disabled singleton
        #: unless a capture is active or ``REPRO_TRACE`` is set).  Every
        #: instrumented layer reaches it through its simulator, and trace
        #: timestamps are bound to *this* clock — never wall time — so a
        #: trace is as deterministic as the run it observes.
        self.obs = obs if obs is not None else _current_obs()
        self.obs.bind_clock(lambda: self._now)
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._ctr_executed = metrics.counter("sim.events_executed")
            self._ctr_cancelled = metrics.counter("sim.events_cancelled")
        else:
            self._ctr_executed = None
            self._ctr_cancelled = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_length(self) -> int:
        """Heap entries currently held, including not-yet-reclaimed cancels."""
        return len(self._queue)

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events still waiting to fire."""
        return len(self._queue) - self._cancelled_pending

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative delays are rejected: the simulator never travels backwards,
        which is exactly the invariant the system under study (NTP) is trying
        to protect.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        event = _ScheduledEvent(self._now + delay, callback)
        heapq.heappush(self._queue, (event.time, next(self._sequence), event))
        self._last_event = event
        return EventHandle(event, self)

    def would_follow(self, handle: EventHandle, delay: float) -> bool:
        """Whether an event scheduled now ``delay`` seconds ahead would fire
        right after ``handle``'s: that one is due then, is the last one
        scheduled, and has neither fired nor been cancelled."""
        event = handle._event
        return (event is self._last_event and not event.fired
                and not event.cancelled and event.time == self._now + delay)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        return self.schedule(when - self._now, callback)

    # -- cancelled-event bookkeeping -----------------------------------------
    def _note_cancellation(self) -> None:
        self.events_cancelled += 1
        self._cancelled_pending += 1
        if self._ctr_cancelled is not None:
            self._ctr_cancelled.inc()
        if (self._cancelled_pending >= self.COMPACT_THRESHOLD
                and self._cancelled_pending * 2 >= len(self._queue)):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from the heap and re-heapify.

        Called automatically once cancelled entries dominate the queue; also
        callable explicitly by long-running drivers between phases.
        """
        if not self._cancelled_pending:
            return
        reclaimed = self._cancelled_pending
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("sim.compactions").inc()
            obs.trace.instant("sim.compact", category="sim",
                              reclaimed=reclaimed, remaining=len(self._queue))

    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._cancelled_pending -= 1
        if not queue:
            return None
        return queue[0][0]

    def step(self) -> bool:
        """Run the single next event.  Returns ``False`` if none is pending."""
        queue = self._queue
        while queue:
            time, _, event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = time
            event.fired = True
            callback = event.callback
            event.callback = None  # free the closure promptly
            callback()
            if self._ctr_executed is not None:
                self._ctr_executed.inc()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        When the run stops because of ``until``, the clock is advanced to
        ``until`` even if no event fired at that instant, so that callers can
        rely on ``sim.now`` after the call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        try:
            while True:
                next_time = self.peek_next_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from the current time."""
        self.run(until=self._now + duration)
