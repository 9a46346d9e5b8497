"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live network.

The injector is the runtime half of the fault subsystem.  ``arm()`` resolves
testbed aliases, schedules every window transition (activation, deactivation,
flap toggles) on the simulator clock, and hooks itself onto
``Network.faults``; from then on the network consults :meth:`on_transmit`
for every packet.  All probabilistic decisions — loss draws, duplication
draws, reorder jitter — come from the simulator's RNG, so the whole faulted
run remains a pure function of ``(config, seed)``.

Per-packet cost is proportional to the number of *currently active* faults
(windows that have not opened yet, or have closed, cost nothing), and a
network without an injector pays a single ``is None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from .plan import (
    Duplicate,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    HostOutage,
    LatencyRamp,
    LinkFlap,
    LinkLoss,
    ReorderJitter,
    window_scale,
)

if TYPE_CHECKING:
    from ..netsim.network import Network
    from ..netsim.packets import IPPacket

#: The verdict :meth:`FaultInjector.on_transmit` hands the network:
#: (drop reason or None, extra one-way latency, duplicate delay or None).
TransmitVerdict = tuple[Optional[str], float, Optional[float]]


def _match(spec: str, address: str) -> bool:
    return spec == "*" or spec == address


@dataclass
class FaultStats:
    """What one injector did to the packet stream, for experiment reporting."""

    drops: dict[str, int] = field(default_factory=dict)
    packets_delayed: int = 0
    packets_duplicated: int = 0
    transitions: int = 0

    @property
    def packets_dropped(self) -> int:
        return sum(self.drops.values())

    def formatted(self) -> str:
        dropped = ", ".join(f"{reason}={count}"
                            for reason, count in sorted(self.drops.items())) or "none"
        return (f"{self.transitions} transitions; dropped [{dropped}], "
                f"{self.packets_delayed} delayed, "
                f"{self.packets_duplicated} duplicated")


class FaultInjector:
    """Executes one fault plan against one network, deterministically.

    ``aliases`` maps ``"@name"`` placeholders in the plan to concrete
    addresses (the testbed builder supplies ``@nameserver``/``@resolver``).
    """

    def __init__(self, network: Network, plan: FaultPlan,
                 aliases: Optional[dict[str, str]] = None) -> None:
        self.network = network
        self.simulator = network.simulator
        self._obs = network.simulator.obs
        self.plan = plan
        self.aliases = dict(aliases or {})
        self.stats = FaultStats()
        self._armed = False
        # Active-fault state, maintained by the scheduled transitions.  The
        # lists keep activation order so per-packet RNG draws consume the
        # stream in a deterministic sequence.
        self._loss: list[LinkLoss] = []
        self._latency: list[LatencyRamp] = []
        self._reorder: list[ReorderJitter] = []
        self._duplicate: list[Duplicate] = []
        self._down_links: list[tuple[str, str]] = []
        self._down_hosts: dict[str, int] = {}

    # -- arming ---------------------------------------------------------------
    def _resolve_address(self, spec: str) -> str:
        if not spec.startswith("@"):
            return spec
        try:
            return self.aliases[spec]
        except KeyError:
            raise FaultPlanError(
                f"unknown address alias {spec!r}; available: "
                f"{', '.join(sorted(self.aliases)) or 'none'}") from None

    def _resolve(self, event: FaultEvent) -> FaultEvent:
        if isinstance(event, HostOutage):
            return replace(event, host=self._resolve_address(event.host))
        return replace(event,
                       src=self._resolve_address(event.src),
                       dst=self._resolve_address(event.dst))

    def _schedule_at(self, when: float, callback) -> None:
        # Windows that opened before the simulator's current time take
        # effect immediately (a plan is usually written for t=0 onwards but
        # scenarios may build their testbed mid-timeline).
        self.simulator.schedule(max(0.0, when - self.simulator.now), callback)

    def arm(self) -> FaultInjector:
        """Schedule every transition and attach to ``network.faults``."""
        if self._armed:
            raise FaultPlanError("a fault injector can only be armed once")
        self._armed = True
        now = self.simulator.now
        for event in self.plan:
            resolved = self._resolve(event)
            if isinstance(resolved, LinkFlap):
                self._arm_flap(resolved)
            else:
                # Windows already open at arm time take effect synchronously:
                # scenarios transmit packets *before* the first simulator
                # step (fragment planting, triggered lookups), and those
                # must race the faults too.
                if resolved.start <= now:
                    self._activate(resolved)
                else:
                    self._schedule_at(resolved.start, lambda e=resolved: self._activate(e))
                self._schedule_at(resolved.end, lambda e=resolved: self._deactivate(e))
        self.network.faults = self
        return self

    def _arm_flap(self, flap: LinkFlap) -> None:
        key = (flap.src, flap.dst)

        def go_down(at: float) -> None:
            self._down_links.append(key)
            self._note_transition("down", flap)
            self._schedule_at(min(at + flap.down_time, flap.end),
                              lambda: go_up(at + flap.down_time))

        def go_up(at: float) -> None:
            self._down_links.remove(key)
            self._note_transition("up", flap)
            next_down = at + flap.up_time
            if next_down < flap.end:
                self._schedule_at(next_down, lambda: go_down(next_down))

        if flap.start <= self.simulator.now:
            go_down(flap.start)
        else:
            self._schedule_at(flap.start, lambda: go_down(flap.start))

    # -- window transitions ---------------------------------------------------
    def _note_transition(self, action: str, event: FaultEvent) -> None:
        self.stats.transitions += 1
        obs = self._obs
        if obs.enabled:
            obs.metrics.counter("fault.transitions", kind=event.kind).inc()
            obs.trace.instant(f"fault.{action}", category="fault",
                              kind=event.kind, start=event.start, end=event.end)

    def _activate(self, event: FaultEvent) -> None:
        if isinstance(event, LinkLoss):
            self._loss.append(event)
        elif isinstance(event, LatencyRamp):
            self._latency.append(event)
        elif isinstance(event, ReorderJitter):
            self._reorder.append(event)
        elif isinstance(event, Duplicate):
            self._duplicate.append(event)
        elif isinstance(event, HostOutage):
            self._down_hosts[event.host] = self._down_hosts.get(event.host, 0) + 1
        self._note_transition("activate", event)

    def _deactivate(self, event: FaultEvent) -> None:
        if isinstance(event, LinkLoss):
            self._loss.remove(event)
        elif isinstance(event, LatencyRamp):
            self._latency.remove(event)
        elif isinstance(event, ReorderJitter):
            self._reorder.remove(event)
        elif isinstance(event, Duplicate):
            self._duplicate.remove(event)
        elif isinstance(event, HostOutage):
            remaining = self._down_hosts.get(event.host, 0) - 1
            if remaining > 0:
                self._down_hosts[event.host] = remaining
            else:
                self._down_hosts.pop(event.host, None)
        self._note_transition("deactivate", event)

    # -- the per-packet seam --------------------------------------------------
    def _drop(self, reason: str) -> TransmitVerdict:
        self.stats.drops[reason] = self.stats.drops.get(reason, 0) + 1
        return (reason, 0.0, None)

    def on_transmit(self, packet: IPPacket) -> TransmitVerdict:
        """Decide one packet's fate; called by ``Network._transmit``.

        Hard faults (outage, flap) are checked before probabilistic ones so
        a downed link consumes no RNG draws — keeping the RNG stream of
        everything else in the run unperturbed by windows the packet never
        raced against.
        """
        src = packet.src_ip
        dst = packet.dst_ip
        if self._down_hosts and (src in self._down_hosts or dst in self._down_hosts):
            return self._drop("outage")
        for link_src, link_dst in self._down_links:
            if _match(link_src, src) and _match(link_dst, dst):
                return self._drop("flap")
        now = self.simulator.now
        rng = self.simulator.rng
        extra = 0.0
        duplicate_delay: Optional[float] = None
        for loss in self._loss:
            if _match(loss.src, src) and _match(loss.dst, dst):
                rate = loss.loss_rate * window_scale(now, loss.start, loss.end, loss.ramp)
                if rate > 0.0 and rng.random() < rate:
                    return self._drop("loss")
        for ramp in self._latency:
            if _match(ramp.src, src) and _match(ramp.dst, dst):
                extra += ramp.extra_latency * window_scale(now, ramp.start, ramp.end,
                                                           ramp.ramp)
        for jitter in self._reorder:
            if jitter.jitter > 0 and _match(jitter.src, src) and _match(jitter.dst, dst):
                extra += rng.uniform(0.0, jitter.jitter)
        for dup in self._duplicate:
            if (_match(dup.src, src) and _match(dup.dst, dst)
                    and rng.random() < dup.probability):
                duplicate_delay = dup.delay
        if extra > 0.0:
            self.stats.packets_delayed += 1
        if duplicate_delay is not None:
            self.stats.packets_duplicated += 1
        return (None, extra, duplicate_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector {len(self.plan)} events [{self.stats.formatted()}]>"
