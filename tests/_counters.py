"""Read ``repro.obs`` counters in tests: every simulated event is counted there.

``count(source, name)`` sums counter ``name`` over every label set;
``count(source, name, reason="loss")`` reads the one label set named.
``source`` is an :class:`~repro.obs.Observability` facade or anything that
holds one as ``.obs`` (a simulator).  ``total(snapshot, keys)`` does the
same for keys in their rendered form (``name`` or ``name{label=value}``).
"""

from __future__ import annotations

from repro.netsim.simulator import Simulator
from repro.obs import MetricsSnapshot, Observability
from repro.obs.metrics import parse_key


def observed_simulator(seed: int = 0) -> Simulator:
    """A simulator with its own enabled facade (no global capture needed)."""
    return Simulator(seed=seed, obs=Observability())


def count(source, name: str, **labels: object) -> int:
    snapshot = getattr(source, "obs", source).metrics.snapshot()
    return snapshot.counter(name, **labels) if labels else snapshot.counter_total(name)


def total(snapshot: MetricsSnapshot, keys: tuple[str, ...]) -> int:
    return sum(snapshot.counters.get(parse_key(key), 0) if "{" in key
               else snapshot.counter_total(key) for key in keys)
