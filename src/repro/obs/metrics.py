"""Labeled counter/gauge/histogram registry with mergeable snapshots.

Design constraints, in order:

1. **O(1) no-op when disabled.**  A disabled registry hands out shared null
   instruments whose mutators do nothing; instrumented hot paths guard with
   a single ``if obs.enabled`` check, so sweeps that never asked for
   observability pay one attribute load and a branch.
2. **Out-of-band.**  Metrics never enter :class:`~repro.experiments.results.
   RunRecord` — the pinned matrix digests are computed over run metrics
   only, so enabling or disabling this registry cannot move a digest.
3. **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` freezes the
   registry into an immutable :class:`MetricsSnapshot`; snapshots merge
   associatively and commutatively (counters/histograms add, gauges take
   the high-water mark), so :class:`~repro.experiments.scheduler.
   SweepScheduler` workers can ship per-task snapshots back through the
   pool in any completion order and the fold is still deterministic.
   The algebra is property-tested under ``hypothesis``.

Instrument keys are ``(name, sorted label pairs)``; the rendered form is
Prometheus-flavoured: ``dns.responses{verdict=rejected}``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any, NoReturn, Optional

#: A fully-resolved instrument key: (name, ((label, value), ...)).
MetricKey = tuple[str, tuple[tuple[str, str], ...]]

#: Default histogram bucket upper bounds: sub-millisecond through minutes,
#: suiting both simulated-seconds latencies and wall-clock task times.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0)


def metric_key(name: str, labels: Mapping[str, object]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def render_key(key: MetricKey) -> str:
    """``name{a=x,b=y}`` — the stable text form used in exports."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically-increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; snapshots keep the high-water mark.

    Max-merging (rather than last-write-wins) is what keeps snapshot
    merging commutative: "deepest queue seen" is well-defined no matter
    which worker's snapshot folds in first.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def track_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram (counts per upper bound, plus sum/min/max)."""

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                slot = index
                break
        self.counts[slot] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def track_max(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state; merge requires identical bounds."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    total: float
    minimum: Optional[float]
    maximum: Optional[float]

    def merge(self, other: HistogramSnapshot) -> HistogramSnapshot:
        if self.bounds != other.bounds:
            raise ValueError(f"cannot merge histograms with different bounds: "
                             f"{self.bounds} != {other.bounds}")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=_merge_optional(min, self.minimum, other.minimum),
            maximum=_merge_optional(max, self.maximum, other.maximum),
        )

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


def _merge_optional(op, a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return op(a, b)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, mergeable view of one registry's state.

    Merge semantics — chosen so ``merge`` is associative and commutative
    (property-tested in ``tests/test_obs_metrics.py``):

    * counters add;
    * gauges take the maximum (high-water mark);
    * histograms add bucket-wise (``total`` merges are exact for the
      integer-valued observations the reproduction records; float
      observations are summed in merge order, which commutes for the
      magnitudes involved).
    """

    counters: Mapping[MetricKey, int] = field(default_factory=dict)
    gauges: Mapping[MetricKey, float] = field(default_factory=dict)
    histograms: Mapping[MetricKey, HistogramSnapshot] = field(default_factory=dict)

    EMPTY: "MetricsSnapshot" = None  # type: ignore[assignment] # set below

    def merge(self, other: MetricsSnapshot) -> MetricsSnapshot:
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = max(gauges.get(key, value), value)
        histograms = dict(self.histograms)
        for key, value in other.histograms.items():
            histograms[key] = (histograms[key].merge(value)
                               if key in histograms else value)
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    @staticmethod
    def merge_all(snapshots: Iterable[Optional["MetricsSnapshot"]]) -> MetricsSnapshot:
        merged = MetricsSnapshot()
        for snapshot in snapshots:
            if snapshot is not None:
                merged = merged.merge(snapshot)
        return merged

    # -- convenience accessors -------------------------------------------------
    def counter(self, name: str, **labels: object) -> int:
        return self.counters.get(metric_key(name, labels), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter over every label combination."""
        return sum(value for (key_name, _), value in self.counters.items()
                   if key_name == name)

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": {render_key(k): v for k, v in sorted(self.counters.items())},
            "gauges": {render_key(k): v for k, v in sorted(self.gauges.items())},
            "histograms": {
                render_key(k): {
                    "bounds": list(h.bounds), "counts": list(h.counts),
                    "count": h.count, "total": h.total,
                    "min": h.minimum, "max": h.maximum,
                }
                for k, h in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> MetricsSnapshot:
        """Inverse of :meth:`to_dict` for decoded JSON; any malformed part
        raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("metrics snapshot is not a JSON object")
        counters = data.get("counters", {})
        gauges = data.get("gauges", {})
        histograms = data.get("histograms", {})
        if not (isinstance(counters, dict) and isinstance(gauges, dict)
                and isinstance(histograms, dict)):
            raise ValueError("metrics sections must be JSON objects")
        return cls(
            counters={parse_key(k): v for k, v in counters.items()
                      if type(v) in _NUMBERS or _not_a_number(v)},
            gauges={parse_key(k): v for k, v in gauges.items()
                    if type(v) in _NUMBERS or _not_a_number(v)},
            histograms={parse_key(k): _histogram(h) for k, h in histograms.items()},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def formatted(self) -> list[str]:
        """One sorted ``key value`` line per instrument, for reports."""
        lines = [f"{render_key(k)} {v}" for k, v in sorted(self.counters.items())]
        lines += [f"{render_key(k)} {v}" for k, v in sorted(self.gauges.items())]
        lines += [f"{render_key(k)} count={h.count} total={h.total}"
                  for k, h in sorted(self.histograms.items())]
        return lines


MetricsSnapshot.EMPTY = MetricsSnapshot()


#: The value types a metric may hold (exact types: a bool is not a metric value).
_NUMBERS = (int, float)


def _not_a_number(value: Any) -> NoReturn:
    raise ValueError(f"metric value {value!r} is not a number")


def _number(value: Any) -> Any:
    return value if type(value) in _NUMBERS else _not_a_number(value)


def _histogram(data: Any) -> HistogramSnapshot:
    try:
        bounds = tuple(_number(bound) for bound in data["bounds"])
        counts = tuple(_number(count) for count in data["counts"])
        snapshot = HistogramSnapshot(
            bounds=bounds, counts=counts,
            count=_number(data["count"]), total=_number(data["total"]),
            minimum=None if data["min"] is None else _number(data["min"]),
            maximum=None if data["max"] is None else _number(data["max"]))
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed histogram: {error!r}") from None
    if len(counts) != len(bounds) + 1:
        raise ValueError("histogram needs one count per bound plus overflow")
    return snapshot


def parse_key(rendered: str) -> MetricKey:
    """Inverse of :func:`render_key`."""
    if "{" not in rendered:
        return (rendered, ())
    name, _, rest = rendered.partition("{")
    body = rest.rstrip("}")
    labels = tuple(tuple(pair.split("=", 1)) for pair in body.split(",") if pair)
    return (name, labels)  # type: ignore[return-value]


class MetricsRegistry:
    """Hands out labeled instruments; disabled registries hand out nulls.

    Instruments are created on first use and identical ``(name, labels)``
    requests return the same object, so hot paths may cache the instrument
    once instead of re-resolving the key per increment.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state (the registry keeps counting after)."""
        return MetricsSnapshot(
            counters={key: c.value for key, c in self._counters.items() if c.value},
            gauges={key: g.value for key, g in self._gauges.items()},
            histograms={
                key: HistogramSnapshot(
                    bounds=h.bounds, counts=tuple(h.counts), count=h.count,
                    total=h.total, minimum=h.minimum, maximum=h.maximum)
                for key, h in self._histograms.items() if h.count
            },
        )

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
