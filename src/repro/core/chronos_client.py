"""The Chronos NTP client.

Combines the two pieces the DSN paper identifies as Chronos' changes over a
traditional client (§III):

* a **bigger pool** of upstream servers, built by
  :class:`repro.core.pool_generation.ChronosPoolGenerator` from repeated
  DNS queries, and
* a **provably secure selection algorithm**
  (:func:`repro.core.selection.chronos_select`) with resampling and panic
  mode.

The client is a simulated host: it talks real DNS to its recursive resolver
and real NTP to the servers in its pool, so the attack experiments exercise
the complete path from a poisoned cache entry to a shifted victim clock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..defenses.stack import DefenseStack
from ..dns.nameserver import DEFAULT_ZONE
from ..dns.resolver import DNSStub
from ..netsim.network import Host, Network
from ..netsim.packets import UDPDatagram
from ..ntp.clock import SystemClock
from ..ntp.query import NTPQuerier, TimeSample
from .pool_generation import ChronosPoolGenerator, GeneratedPool, PoolGenerationPolicy
from .selection import ChronosConfig, ChronosSelectionResult, chronos_select, panic_select


class UpdateOutcome(enum.Enum):
    """How a Chronos update round concluded."""

    APPLIED = "applied"
    RETRIED = "retried"
    PANIC = "panic"
    NO_SAMPLES = "no-samples"


@dataclass
class ChronosUpdateRecord:
    """Diagnostics for one Chronos update round (including retries)."""

    started_at: float
    sampled_servers: list[str] = field(default_factory=list)
    samples: list[TimeSample] = field(default_factory=list)
    attempts: int = 0
    outcome: Optional[UpdateOutcome] = None
    applied_offset: Optional[float] = None
    selection: Optional[ChronosSelectionResult] = None


class ChronosClient(Host):
    """A Chronos-enhanced NTP client running on the simulated network."""

    def __init__(self, network: Network, address: str, resolver_address: str,
                 hostname: str = DEFAULT_ZONE,
                 config: Optional[ChronosConfig] = None,
                 pool_policy: Optional[PoolGenerationPolicy] = None,
                 clock: Optional[SystemClock] = None,
                 name: Optional[str] = None,
                 defenses: Optional[DefenseStack] = None) -> None:
        super().__init__(network, address, name=name or f"chronos-{address}")
        self.config = config or ChronosConfig()
        self.clock = clock or SystemClock(network.simulator)
        self.dns = DNSStub(self, resolver_address)
        self.querier = NTPQuerier(self, self.clock)
        #: Client-side hooks of the experiment's defense stack (pool
        #: admission filtering and NTP-sample vetoes).
        self.defenses = defenses
        self.pool_generator = ChronosPoolGenerator(self.dns, hostname=hostname,
                                                   policy=pool_policy,
                                                   defenses=defenses)
        self.hostname = hostname
        self.pool: Optional[GeneratedPool] = None
        self.update_history: list[ChronosUpdateRecord] = []
        self.panic_count = 0
        self.started = False
        self._last_update_time: Optional[float] = None
        self._current: Optional[ChronosUpdateRecord] = None
        self._outstanding = 0
        self._attempt = 0
        self._in_panic = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Begin pool generation; time updates start once the pool is ready."""
        if self.started:
            return
        self.started = True
        self.pool_generator.generate(self._on_pool_ready)

    def _on_pool_ready(self, pool: GeneratedPool) -> None:
        self.pool = pool
        self.begin_updates()

    def begin_updates(self) -> None:
        """Start the periodic update loop on the current pool.

        Normally invoked automatically once pool generation finishes; exposed
        so experiment harnesses that drive pool generation themselves (e.g.
        the attack scenarios) can start the time-update phase explicitly.
        """
        if self.pool is None:
            raise RuntimeError("cannot start updates without a generated pool")
        self._last_update_time = self.network.simulator.now
        self._begin_update()

    # -- update rounds ---------------------------------------------------------
    def _begin_update(self) -> None:
        if self.pool is None or not self.pool.servers:
            return
        self._attempt = 0
        self._in_panic = False
        record = ChronosUpdateRecord(started_at=self.network.simulator.now)
        self._current = record
        self._start_attempt(record)

    def _start_attempt(self, record: ChronosUpdateRecord) -> None:
        record.attempts += 1
        pool_servers = self.pool.servers
        sample_size = min(self.config.sample_size, len(pool_servers))
        servers = self.network.simulator.rng.sample(pool_servers, sample_size)
        record.sampled_servers = servers
        record.samples = []
        self._outstanding = len(servers)
        for server in servers:
            self.querier.query(server, lambda sample, rec=record: self._on_sample(rec, sample))

    def _start_panic(self, record: ChronosUpdateRecord) -> None:
        self._in_panic = True
        self.panic_count += 1
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("chronos.panic_rounds").inc()
            obs.trace.instant("chronos.panic", category="ntp",
                              client=self.address, attempts=record.attempts)
        servers = list(self.pool.servers)
        record.sampled_servers = servers
        record.samples = []
        self._outstanding = len(servers)
        for server in servers:
            self.querier.query(server, lambda sample, rec=record: self._on_sample(rec, sample))

    def _on_sample(self, record: ChronosUpdateRecord, sample: Optional[TimeSample]) -> None:
        if record is not self._current:
            return
        if (sample is not None and self.defenses is not None
                and not self.defenses.on_ntp_sample(sample)):
            sample = None  # vetoed by a defense; treat like a lost exchange
        if sample is not None:
            record.samples.append(sample)
        self._outstanding -= 1
        if self._outstanding == 0:
            self._finish_attempt(record)

    def _finish_attempt(self, record: ChronosUpdateRecord) -> None:
        offsets = [sample.offset for sample in record.samples if sample.plausible]
        elapsed = (self.network.simulator.now - self._last_update_time
                   if self._last_update_time is not None else 0.0)
        if not offsets:
            record.outcome = UpdateOutcome.NO_SAMPLES
            self._complete_update(record)
            return
        if self._in_panic:
            result = panic_select(offsets, self.config)
            record.selection = result
            record.outcome = UpdateOutcome.PANIC
            if result.accepted:
                self._apply_offset(record, result.offset)
            self._complete_update(record)
            return
        result = chronos_select(offsets, self.config, elapsed_since_update=elapsed)
        record.selection = result
        if result.accepted:
            record.outcome = UpdateOutcome.APPLIED
            self._apply_offset(record, result.offset)
            self._complete_update(record)
            return
        if self._attempt < self.config.max_retries:
            self._attempt += 1
            record.outcome = UpdateOutcome.RETRIED
            self._start_attempt(record)
            return
        self._start_panic(record)

    def _apply_offset(self, record: ChronosUpdateRecord, offset: float) -> None:
        record.applied_offset = offset
        self.clock.adjust(offset)

    def _complete_update(self, record: ChronosUpdateRecord) -> None:
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("chronos.updates",
                                outcome=record.outcome.value).inc()
        self._current = None
        self._last_update_time = self.network.simulator.now
        self.update_history.append(record)
        self.network.simulator.schedule(self.config.poll_interval, self._begin_update)

    # -- datagram dispatch -------------------------------------------------------
    def handle_datagram(self, datagram: UDPDatagram) -> None:
        if self.dns.handle_datagram(datagram):
            return
        self.querier.handle_datagram(datagram)

    # -- reporting ---------------------------------------------------------------
    @property
    def clock_error(self) -> float:
        """Current signed error of the victim clock versus true time."""
        return self.clock.error
