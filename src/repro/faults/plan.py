"""Declarative fault plans: what goes wrong, where, and when.

A plan is a tuple of frozen event dataclasses, each describing one fault
window on the simulated network.  Every event is expressible as a plain
dict (``{"kind": ..., **fields}``) so plans travel through experiment
parameter dicts, multiprocessing workers and the content-addressed run
cache exactly like every other scenario knob; :meth:`FaultPlan.from_spec`
and :meth:`FaultPlan.to_spec` convert between the two forms.

Address fields (``src``/``dst``/``host``) accept a concrete IPv4 address,
the wildcard ``"*"``, or a testbed alias (``"@nameserver"``, ``"@resolver"``)
resolved when the plan is armed — so one plan spec applies to any scenario's
address layout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Union


class FaultPlanError(ValueError):
    """Raised for malformed fault plans or event specs."""


def _check_window(start: float, end: float) -> None:
    if not start < end:
        raise FaultPlanError(f"fault window must satisfy start < end, got [{start}, {end})")
    if start < 0:
        raise FaultPlanError(f"fault window cannot start before t=0, got {start}")


def _check_fraction(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be within [0, 1], got {value}")


def window_scale(now: float, start: float, end: float, ramp: float) -> float:
    """Linear ramp envelope of a fault window, in [0, 1].

    With ``ramp == 0`` the fault applies at full strength for the whole
    window; otherwise intensity climbs linearly over the first ``ramp``
    seconds and falls symmetrically over the last ``ramp`` seconds — the
    "loss ramp" shape that lets a sweep ask *how much* degradation an
    attack tolerates rather than just whether it survives a step function.
    """
    if now < start or now >= end:
        return 0.0
    if ramp <= 0.0:
        return 1.0
    return max(0.0, min(1.0, (now - start) / ramp, (end - now) / ramp))


@dataclass(frozen=True)
class _Windowed:
    """Common shape of every fault event: a [start, end) window."""

    kind: ClassVar[str] = ""

    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class LinkLoss(_Windowed):
    """Probabilistic packet loss on matching links during the window."""

    kind: ClassVar[str] = "link_loss"

    loss_rate: float = 0.0
    src: str = "*"
    dst: str = "*"
    #: Ramp-up/-down time in seconds (see :func:`window_scale`).
    ramp: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_fraction(self.loss_rate, "loss_rate")


@dataclass(frozen=True)
class LatencyRamp(_Windowed):
    """Extra one-way latency on matching links, ramped over the window."""

    kind: ClassVar[str] = "latency_ramp"

    extra_latency: float = 0.0
    src: str = "*"
    dst: str = "*"
    ramp: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_latency < 0:
            raise FaultPlanError(f"extra_latency must be >= 0, got {self.extra_latency}")


@dataclass(frozen=True)
class LinkFlap(_Windowed):
    """A link that toggles hard-down/up on a fixed cadence.

    Within the window the matching link starts *down* for ``down_time``
    seconds, comes back for ``up_time``, and repeats until the window ends
    (the link is forced up at ``end``).  Unlike :class:`LinkLoss` this is a
    deterministic square wave — the shape of a flapping route, not of
    congestion.
    """

    kind: ClassVar[str] = "link_flap"

    down_time: float = 1.0
    up_time: float = 1.0
    src: str = "*"
    dst: str = "*"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.down_time <= 0 or self.up_time <= 0:
            raise FaultPlanError("down_time and up_time must be positive, got "
                                 f"{self.down_time}/{self.up_time}")


@dataclass(frozen=True)
class Duplicate(_Windowed):
    """Probabilistic packet duplication with a fixed duplicate delay."""

    kind: ClassVar[str] = "duplicate"

    probability: float = 0.0
    delay: float = 0.01
    src: str = "*"
    dst: str = "*"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_fraction(self.probability, "probability")
        if self.delay < 0:
            raise FaultPlanError(f"duplicate delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class ReorderJitter(_Windowed):
    """Uniform extra delay in [0, jitter) per packet — reorders streams."""

    kind: ClassVar[str] = "reorder_jitter"

    jitter: float = 0.0
    src: str = "*"
    dst: str = "*"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.jitter < 0:
            raise FaultPlanError(f"jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class HostOutage(_Windowed):
    """A host (nameserver, NTP server) down for the window, then restarted.

    While down the host neither sends nor receives: every packet to or from
    its address is dropped, which is what a crashed daemon looks like to
    the rest of the network.
    """

    kind: ClassVar[str] = "host_outage"

    host: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.host:
            raise FaultPlanError("a host outage needs a host address (or alias)")


FaultEvent = Union[LinkLoss, LatencyRamp, LinkFlap, Duplicate, ReorderJitter,
                   HostOutage]

_EVENT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (LinkLoss, LatencyRamp, LinkFlap, Duplicate, ReorderJitter,
                HostOutage)
}


def event_from_spec(spec: Any) -> FaultEvent:
    """Parse one event from its dict form (event instances pass through)."""
    if isinstance(spec, tuple(_EVENT_KINDS.values())):
        return spec
    if not isinstance(spec, dict):
        raise FaultPlanError(f"a fault event spec must be a dict, got {type(spec).__name__}")
    payload = dict(spec)
    kind = payload.pop("kind", None)
    cls = _EVENT_KINDS.get(kind)
    if cls is None:
        raise FaultPlanError(f"unknown fault kind {kind!r}; available: "
                             f"{', '.join(sorted(_EVENT_KINDS))}")
    accepted = {f.name for f in fields(cls)}
    unknown = set(payload) - accepted
    if unknown:
        raise FaultPlanError(f"unknown field(s) for {kind!r}: {', '.join(sorted(unknown))}; "
                             f"accepted: {', '.join(sorted(accepted))}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise FaultPlanError(f"bad {kind!r} event: {exc}") from None


def event_to_spec(event: FaultEvent) -> dict[str, Any]:
    """One event's canonical dict form (JSON-able, cache-key-stable)."""
    return {"kind": event.kind, **{f.name: getattr(event, f.name) for f in fields(event)}}


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault events.

    The empty plan is falsy and is the implicit default everywhere: a
    testbed built without faults never constructs an injector at all.
    """

    events: tuple[FaultEvent, ...] = ()

    @classmethod
    def from_spec(cls, spec: Any) -> FaultPlan:
        """Build a plan from an iterable of event dicts and/or events."""
        return cls(events=tuple(event_from_spec(item) for item in spec or ()))

    def to_spec(self) -> tuple[dict[str, Any], ...]:
        """The plan's picklable, parameter-dict-ready form."""
        return tuple(event_to_spec(event) for event in self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
