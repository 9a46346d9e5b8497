"""Deterministic fault injection for the simulated network.

The paper's attacks are races: fragmentation poisoning outruns the genuine
second fragment, the downgrade flood outlasts the resolver's connection
attempts, and the Chronos pool shift needs its hijack window to cover enough
of the 24-query generation.  A pristine network flatters all of them.  This
package makes the testbed's network *imperfect on purpose* — and exactly
reproducibly so:

* a :class:`FaultPlan` is a declarative, picklable description of what goes
  wrong and when (loss and latency ramps, link flaps, packet duplication,
  reorder jitter, host outage/restart windows — a host cut off from
  everyone is an outage);
* a :class:`FaultInjector` arms the plan against one
  :class:`~repro.netsim.network.Network`: window transitions are scheduled
  on the simulator clock and per-packet decisions draw from the simulator's
  RNG, so a faulted run is as deterministic as a clean one — byte-identical
  digests across worker counts, same as every other sweep.

The seam costs nothing when unused: ``Network.faults`` is ``None`` by
default and the transmit path performs a single attribute check.  Scenarios
opt in through ``TestbedConfig.faults`` (a :meth:`FaultPlan.to_spec` tuple),
which every registered attack scenario accepts as the optional ``faults``
parameter.
"""

from .injector import FaultInjector, FaultStats
from .plan import (
    Duplicate,
    FaultEvent,
    FaultPlanError,
    HostOutage,
    LatencyRamp,
    LinkFlap,
    LinkLoss,
    ReorderJitter,
)
from .plan import FaultPlan

__all__ = [
    "Duplicate",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultStats",
    "HostOutage",
    "LatencyRamp",
    "LinkFlap",
    "LinkLoss",
    "ReorderJitter",
]
