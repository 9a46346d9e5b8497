"""Simulated system clocks.

Every host that cares about time of day owns a :class:`SystemClock` bound to
the shared simulator.  "True" time is defined as ``DEFAULT_EPOCH +
simulator.now``; each clock then carries its own offset (initial error plus
any adjustments applied by the NTP/Chronos clients), so experiments can
measure precisely how far an attack managed to shift a victim clock from
true time.
"""

from __future__ import annotations

from ..netsim.simulator import Simulator

#: Default epoch for simulated wall-clock time (2021-01-01T00:00:00Z);
#: any value inside NTP era 0 works.
DEFAULT_EPOCH = 1609459200.0


class SystemClock:
    """An adjustable clock: true simulated time plus an offset."""

    def __init__(self, simulator: Simulator, offset: float = 0.0) -> None:
        self.simulator = simulator
        self._offset = offset

    def true_time(self) -> float:
        """The reference ("UTC") time no attacker can influence."""
        return DEFAULT_EPOCH + self.simulator.now

    def now(self) -> float:
        """The time this clock currently believes it is."""
        return self.true_time() + self._offset

    @property
    def error(self) -> float:
        """Signed difference between this clock and true time (seconds)."""
        return self.now() - self.true_time()

    def adjust(self, delta: float) -> None:
        """Slew/step the clock by ``delta`` seconds (positive = forwards)."""
        self._offset += delta
