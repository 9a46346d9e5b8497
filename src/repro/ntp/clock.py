"""Simulated system clocks.

Every host that cares about time of day owns a :class:`SystemClock` bound to
the shared simulator.  "True" time is defined as ``epoch + simulator.now``;
each clock then carries its own offset (initial error plus any adjustments
applied by the NTP/Chronos clients) and a constant drift rate, so experiments
can measure precisely how far an attack managed to shift a victim clock from
true time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.simulator import Simulator

#: Default epoch for simulated wall-clock time (2021-01-01T00:00:00Z);
#: any value inside NTP era 0 works.
DEFAULT_EPOCH = 1609459200.0


@dataclass
class ClockAdjustment:
    """Record of one clock adjustment (for audit in experiments)."""

    applied_at: float
    delta: float
    source: str


class SystemClock:
    """A drifting, adjustable clock derived from the simulator's time base."""

    def __init__(self, simulator: Simulator, offset: float = 0.0,
                 drift_ppm: float = 0.0, epoch: float = DEFAULT_EPOCH) -> None:
        self.simulator = simulator
        self.epoch = epoch
        self._offset = offset
        self.drift_ppm = drift_ppm
        self._drift_reference = simulator.now
        self._accumulated_drift = 0.0
        self.adjustments: list[ClockAdjustment] = []

    # -- reading ----------------------------------------------------------
    def true_time(self) -> float:
        """The reference ("UTC") time no attacker can influence."""
        return self.epoch + self.simulator.now

    def _current_drift(self) -> float:
        elapsed = self.simulator.now - self._drift_reference
        return self._accumulated_drift + elapsed * self.drift_ppm * 1e-6

    def now(self) -> float:
        """The time this clock currently believes it is."""
        return self.true_time() + self._offset + self._current_drift()

    @property
    def error(self) -> float:
        """Signed difference between this clock and true time (seconds)."""
        return self.now() - self.true_time()

    # -- adjusting ----------------------------------------------------------
    def adjust(self, delta: float, source: str = "ntp") -> None:
        """Slew/step the clock by ``delta`` seconds (positive = forwards)."""
        self._offset += delta
        self.adjustments.append(ClockAdjustment(self.simulator.now, delta, source))

    def set_offset(self, offset: float, source: str = "manual") -> None:
        """Set the absolute offset from true time, folding in current drift."""
        delta = offset - (self._offset + self._current_drift())
        self.adjust(delta, source=source)


@dataclass
class ClockErrorTrace:
    """Samples of a clock's error over time, for plotting/aggregation."""

    samples: list[tuple[float, float]] = field(default_factory=list)

    def record(self, clock: SystemClock) -> None:
        self.samples.append((clock.simulator.now, clock.error))

    @property
    def max_abs_error(self) -> float:
        return max((abs(error) for _, error in self.samples), default=0.0)

    @property
    def final_error(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0
