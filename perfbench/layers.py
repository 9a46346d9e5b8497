"""The layer table: which public functions of ``repro`` the traced run times.

Each :class:`Entry` names one function or method, the layer its self time
is booked to, and optional hooks that turn the call into work counts
(``<layer>.<count>`` in :attr:`SpanRecorder.counts`).  Constructing a
:class:`Tracing` patches every entry in place; its ``restore()`` puts the
originals back.

A few counters live on objects the layers already maintain (resolver
forward/reject/cache-hit totals); the traced run tracks those instances
as they are constructed and folds the deltas of their attributes in at
every task boundary and at the end of a pass.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from spans import Patcher, SpanRecorder

#: Layers in report order.  ``dns.codec`` is ``dns.message`` +
#: ``dns.records`` + ``dns.wire``; ``dns.resolver`` includes the resolver
#: cache and the authoritative nameservers.
LAYERS = (
    "netsim.simulator",
    "netsim.network",
    "netsim.addresses",
    "netsim.transport",
    "dns.codec",
    "dns.resolver",
    "dns.transport",
    "defenses",
    "attacks",
    "ntp",
    "experiments.testbed",
    "experiments.scheduler",
    "experiments.cache",
    "campaign",
    "population",
)

#: Work counts per layer, reported as ``<layer>.<count>`` (see the README
#: for what each one counts).
COUNTS = {
    "netsim.simulator": ("events_executed", "events_cancelled"),
    "netsim.network": ("packets_sent", "packets_injected",
                       "datagrams_fragmented", "fragments_reassembled"),
    "netsim.addresses": ("ip_to_int_calls", "int_to_ip_calls"),
    "netsim.transport": ("connections_established", "segments",
                         "handshakes_full", "handshakes_resumed"),
    "dns.codec": ("messages_encoded", "messages_decoded", "records_encoded",
                  "records_decoded", "wire_bytes", "decode_errors"),
    "dns.resolver": ("queries_forwarded", "responses_accepted",
                     "responses_rejected", "cache_hits"),
    "dns.transport": ("dispatches", "connections_opened", "connections_reused"),
    "defenses": ("verdicts", "rejections"),
    "attacks": ("frag_bursts", "fragments_planted", "syns_sent"),
    "ntp": ("samples_collected", "selection_runs"),
    "experiments.testbed": ("builds",),
    "experiments.scheduler": ("tasks",),
    "experiments.cache": ("gets", "hits", "puts", "bytes_read"),
    "campaign": ("runs", "journal_writes"),
    "population": ("clients_simulated", "cohorts"),
}

#: Ratios derived from the counts: name -> (numerator, denominator parts).
RATIOS = {
    "dns.resolver.accept_ratio": ("dns.resolver.responses_accepted",
                                  ("dns.resolver.responses_accepted",
                                   "dns.resolver.responses_rejected")),
    "dns.transport.reuse_ratio": ("dns.transport.connections_reused",
                                  ("dns.transport.dispatches",)),
}

#: Benchmark count -> ``repro.obs`` counters measuring the same thing.  The
#: traced report lists every pair whose totals differ.
OBS_PAIRS = {
    "netsim.simulator.events_executed": ("sim.events_executed",),
    "netsim.simulator.events_cancelled": ("sim.events_cancelled",),
    "netsim.network.packets_sent": ("net.packets_sent",),
    "netsim.network.packets_injected": ("net.packets_injected",),
    "netsim.network.fragmented_by_network": ("net.datagrams_fragmented",),
    "dns.resolver.queries_forwarded": ("dns.queries_forwarded",),
    "dns.resolver.responses_accepted": ("dns.responses_accepted",),
    "dns.resolver.responses_rejected": ("dns.responses_rejected",
                                        "dns.responses_unmatched"),
    "dns.resolver.cache_hits": ("dns.cache_hits",),
    "dns.transport.connections_opened": ("dns.pool.connections_opened",),
    "dns.transport.connections_reused": ("dns.pool.connections_reused",),
    "attacks.frag_bursts": ("attack.frag_bursts",),
    "attacks.fragments_planted": ("attack.fragments_planted",),
    "attacks.syns_sent": ("attack.syns_sent",),
    "ntp.samples_collected": ("ntp.samples_collected",),
    "ntp.ntpd_selections": ("ntp.selection_runs",),
    "population.clients_simulated": ("fleet.clients_simulated",),
    "population.cohorts": ("fleet.cohorts_run",),
}


# -- hooks ---------------------------------------------------------------------
def _count(name: str, amount: int = 1) -> Callable:
    def after(recorder, _state, _args, _kwargs, _result):
        recorder.counts[name] += amount
    return after


def _count_if(name: str, predicate: Callable[[Any], bool]) -> Callable:
    def after(recorder, _state, _args, _kwargs, result):
        if predicate(result):
            recorder.counts[name] += 1
    return after


def _attribute_delta(name: str, attr: str) -> tuple[Callable, Callable]:
    """Count how far ``self.<attr>`` moved across the call."""
    def before(_recorder, args, _kwargs):
        return getattr(args[0], attr)

    def after(recorder, state, args, _kwargs, _result):
        recorder.counts[name] += getattr(args[0], attr) - state
    return before, after


def _encode_message(recorder, _state, _args, _kwargs, result):
    recorder.counts["dns.codec.messages_encoded"] += 1
    recorder.counts["dns.codec.wire_bytes"] += len(result)


def _fragmented(recorder, _state, _args, _kwargs, result):
    if len(result) > 1:
        recorder.counts["netsim.network.datagrams_fragmented"] += 1
    if recorder.active("Network.send_datagram"):
        recorder.counts["netsim.network.packets_sent"] += len(result)
        if len(result) > 1:
            recorder.counts["netsim.network.fragmented_by_network"] += 1


def _sent_one(recorder, _state, _args, _kwargs, _result):
    recorder.counts["netsim.network.packets_sent"] += 1


def _injected(recorder, _state, _args, _kwargs, _result):
    recorder.counts["netsim.network.packets_injected"] += 1
    recorder.counts["netsim.network.packets_sent"] += 1


def _reassembly(recorder, _state, args, _kwargs, _result):
    if args[1].is_fragment:
        recorder.counts["netsim.network.fragments_reassembled"] += 1


def _connection_created(recorder, _state, _args, _kwargs, _result):
    recorder.counts["netsim.transport.connections_established"] += 1
    if recorder.inside("dns.transport"):
        recorder.counts["dns.transport.connections_opened"] += 1


def _client_handshake(recorder, _state, _args, kwargs, _result):
    kind = "resumed" if kwargs.get("ticket") is not None else "full"
    recorder.counts[f"netsim.transport.handshakes_{kind}"] += 1


def _dispatch_before(recorder, _args, _kwargs):
    counts = recorder.counts
    return counts["dns.transport.connections_opened"], counts["dns.transport.stream_sends"]


def _dispatch_after(recorder, state, _args, _kwargs, _result):
    counts = recorder.counts
    counts["dns.transport.dispatches"] += 1
    opened, sends = state
    if (counts["dns.transport.stream_sends"] > sends
            and counts["dns.transport.connections_opened"] == opened):
        counts["dns.transport.connections_reused"] += 1


def _verdict(rejected: Callable[[Any], bool], accepted: Optional[str] = None) -> Callable:
    def after(recorder, _state, _args, _kwargs, result):
        recorder.counts["defenses.verdicts"] += 1
        if rejected(result):
            recorder.counts["defenses.rejections"] += 1
        elif accepted is not None:
            recorder.counts[accepted] += 1
    return after


def _sample_before(_recorder, args, _kwargs):
    return len(args[0]._pending)


def _sample_after(recorder, state, args, _kwargs, _result):
    if len(args[0]._pending) < state:
        recorder.counts["ntp.samples_collected"] += 1


def _cache_get(recorder, _state, _args, _kwargs, result):
    recorder.counts["experiments.cache.gets"] += 1
    if result is not None:
        recorder.counts["experiments.cache.hits"] += 1


def _shard_before(_recorder, args, _kwargs):
    cache, shard = args[0], args[1]
    if shard in cache._shards:
        return 0
    path = Path(cache._shard_path(shard))
    return path.stat().st_size if path.exists() else 0


def _shard_after(recorder, state, _args, _kwargs, _result):
    recorder.counts["experiments.cache.bytes_read"] += state


def _cohort(recorder, _state, _args, _kwargs, result):
    recorder.counts["population.cohorts"] += 1
    recorder.counts["population.clients_simulated"] += result["clients"]


# -- the table -----------------------------------------------------------------
@dataclass(frozen=True)
class Entry:
    """One timed entry point: ``module:Class.method`` or ``module:function``."""

    layer: str
    target: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    task: bool = False
    #: Book the task's self time to the row ``row_of`` names.
    rows: bool = False


def _entries() -> list[Entry]:
    simulator_cancel = _attribute_delta("netsim.simulator.events_cancelled",
                                        "events_cancelled")
    syns = _attribute_delta("attacks.syns_sent", "syns_sent")
    return [
        # The event loop.  ``run`` starts a task when none is open, so a
        # serving query (one ``run`` window) is one task.
        Entry("netsim.simulator", "repro.netsim.simulator:Simulator.run",
              *simulator_cancel, task=True),
        Entry("netsim.simulator", "repro.netsim.simulator:Simulator.step",
              after=_count_if("netsim.simulator.events_executed", bool)),
        # IP/UDP, fragmentation and reassembly.
        Entry("netsim.network", "repro.netsim.network:Network.send_datagram"),
        Entry("netsim.network", "repro.netsim.network:Network.send_packet",
              after=_sent_one),
        Entry("netsim.network", "repro.netsim.network:Network.inject",
              after=_injected),
        Entry("netsim.network", "repro.netsim.network:Host.deliver_packet"),
        Entry("netsim.network", "repro.netsim.fragmentation:fragment_datagram",
              after=_fragmented),
        Entry("netsim.network",
              "repro.netsim.fragmentation:ReassemblyBuffer.add_fragment",
              after=_reassembly),
        Entry("netsim.network", "repro.netsim.packets:udp_checksum"),
        # Dotted-quad conversions.
        Entry("netsim.addresses", "repro.netsim.addresses:ip_to_int",
              after=_count("netsim.addresses.ip_to_int_calls")),
        Entry("netsim.addresses", "repro.netsim.addresses:int_to_ip",
              after=_count("netsim.addresses.int_to_ip_calls")),
        # TCP and the TLS-flavoured channel.
        Entry("netsim.transport", "repro.netsim.transport:TCPStack.create_connection",
              after=_connection_created),
        Entry("netsim.transport", "repro.netsim.transport:TCPStack.handle_packet",
              after=_count("netsim.transport.segments")),
        Entry("netsim.transport", "repro.netsim.transport:SecureChannel.client",
              after=_client_handshake),
        Entry("netsim.transport", "repro.netsim.transport:SecureChannel.server"),
        Entry("netsim.transport", "repro.netsim.transport:TCPSegment.encode"),
        Entry("netsim.transport", "repro.netsim.transport:TCPSegment.decode"),
        # The DNS codec.
        Entry("dns.codec", "repro.dns.message:DNSMessage.encode",
              after=_encode_message),
        Entry("dns.codec", "repro.dns.message:DNSMessage.decode",
              after=_count("dns.codec.messages_decoded")),
        Entry("dns.codec", "repro.dns.records:ResourceRecord.encode",
              after=_count("dns.codec.records_encoded")),
        Entry("dns.codec", "repro.dns.records:ResourceRecord.decode",
              after=_count("dns.codec.records_decoded")),
        Entry("dns.codec", "repro.dns.wire:encode_name"),
        Entry("dns.codec", "repro.dns.wire:decode_name"),
        # Resolver logic, its cache, and the nameservers.
        Entry("dns.resolver", "repro.dns.resolver:RecursiveResolver.trigger_lookup"),
        Entry("dns.resolver", "repro.dns.resolver:RecursiveResolver.handle_datagram"),
        Entry("dns.resolver", "repro.dns.cache:DNSCache.lookup"),
        Entry("dns.resolver", "repro.dns.cache:DNSCache.insert"),
        Entry("dns.resolver",
              "repro.dns.nameserver:AuthoritativeNameserver.handle_datagram"),
        Entry("dns.resolver", "repro.dns.nameserver:AuthoritativeNameserver.answer_query"),
        # Stream transports for DNS.
        Entry("dns.transport", "repro.dns.transport:ResolverUpstreamTransport.dispatch",
              _dispatch_before, _dispatch_after),
        Entry("dns.transport",
              "repro.dns.transport:ResolverUpstreamTransport.retry_over_tcp"),
        Entry("dns.transport", "repro.dns.transport:PooledConnection.send_query",
              after=_count("dns.transport.stream_sends")),
        Entry("dns.transport", "repro.dns.transport:DNSFrameDecoder.feed"),
        Entry("dns.transport", "repro.dns.transport:DoHMessageDecoder.feed"),
        # Defense hooks.
        Entry("defenses", "repro.defenses.stack:DefenseStack.on_outgoing_query"),
        Entry("defenses", "repro.defenses.stack:DefenseStack.on_incoming_response",
              after=_verdict(lambda verdict: verdict is not None,
                             accepted="dns.resolver.responses_accepted")),
        Entry("defenses", "repro.defenses.stack:DefenseStack.on_pool_accept",
              after=_verdict(lambda ctx: ctx.rejected_by is not None)),
        Entry("defenses", "repro.defenses.stack:DefenseStack.on_ntp_sample",
              after=_verdict(lambda kept: not kept)),
        # Attack drivers.
        Entry("attacks", "repro.attacks.attacker:build_attacker_infrastructure"),
        Entry("attacks", "repro.attacks.attacker:ImpersonatingNameserver.handle_datagram"),
        Entry("attacks", "repro.attacks.frag_poisoning:FragmentationPoisoner.plant_fragments",
              after=lambda recorder, _s, _a, _k, report: recorder.counts.update({
                  "attacks.frag_bursts": 1,
                  "attacks.fragments_planted": report.planted_fragments})),
        Entry("attacks", "repro.attacks.bgp_hijack:BGPHijackPoisoner.announce"),
        Entry("attacks", "repro.attacks.bgp_hijack:BGPHijackPoisoner.withdraw"),
        Entry("attacks", "repro.attacks.downgrade:SynFloodDowngrader.flood_once", *syns),
        Entry("attacks", "repro.attacks.query_trigger:SMTPTriggerServer.handle_datagram"),
        # NTP clients, servers and the selection algorithms.
        Entry("ntp", "repro.ntp.selection:ntpd_select",
              after=lambda recorder, _s, _a, _k, _r: recorder.counts.update(
                  ("ntp.selection_runs", "ntp.ntpd_selections"))),
        Entry("ntp", "repro.core.selection:chronos_select",
              after=_count("ntp.selection_runs")),
        Entry("ntp", "repro.core.selection:panic_select",
              after=_count("ntp.selection_runs")),
        Entry("ntp", "repro.ntp.query:NTPQuerier.query"),
        Entry("ntp", "repro.ntp.query:NTPQuerier.handle_datagram",
              _sample_before, _sample_after),
        Entry("ntp", "repro.ntp.server:NTPServer.handle_datagram"),
        Entry("ntp", "repro.ntp.client:TraditionalNTPClient.handle_datagram"),
        Entry("ntp", "repro.core.chronos_client:ChronosClient.handle_datagram"),
        # Experiment plumbing.
        Entry("experiments.testbed", "repro.experiments.testbed:TestbedBuilder.build",
              after=_count("experiments.testbed.builds")),
        Entry("experiments.scheduler", "repro.experiments.runner:run_scenario",
              after=_count("experiments.scheduler.tasks"), task=True, rows=True),
        Entry("experiments.scheduler",
              "repro.experiments.scheduler:SweepScheduler.run_specs"),
        Entry("experiments.scheduler",
              "repro.experiments.results:ExperimentResult.digest"),
        Entry("experiments.scheduler",
              "repro.experiments.matrix:DefenseMatrixResult.digest"),
        Entry("experiments.cache", "repro.experiments.cache:RunCache.__init__"),
        Entry("experiments.cache", "repro.experiments.cache:RunCache.get_entry",
              after=_cache_get),
        Entry("experiments.cache", "repro.experiments.cache:RunCache.put",
              after=_count("experiments.cache.puts")),
        Entry("experiments.cache", "repro.experiments.cache:RunCache._load_shard",
              _shard_before, _shard_after),
        # Campaigns.
        Entry("campaign", "repro.campaign.runner:CampaignRunner.run",
              after=_count("campaign.runs"), task=True),
        Entry("campaign", "repro.campaign.report:emit_report"),
        Entry("campaign", "repro.campaign.figures:render_heatmap_svg"),
        Entry("campaign", "repro.campaign.figures:render_heatmap_markdown"),
        Entry("campaign", "repro.campaign.figures:render_curve_svg"),
        Entry("campaign", "repro.campaign.state:_atomic_write_json",
              after=_count("campaign.journal_writes")),
        # The vectorized fleet.
        Entry("population", "repro.population.engine:FleetEngine.run", after=_cohort),
        Entry("population", "repro.population.engine:cohort_poison_queries"),
        Entry("population", "repro.population.batch:batch_chronos_select"),
        Entry("population", "repro.population.batch:batch_panic_select"),
        Entry("population", "repro.population.rng:HypergeomSampler.sample_from"),
    ]


#: Object counters folded in by delta: class -> {attribute: count name}.
TRACKED = {
    "repro.dns.resolver:RecursiveResolver": {
        "queries_forwarded": "dns.resolver.queries_forwarded",
        "responses_rejected": "dns.resolver.responses_rejected",
        "queries_answered_from_cache": "dns.resolver.cache_hits",
    },
}


def _resolve(target: str) -> tuple[Any, str, bool]:
    """``module:Class.attr`` -> (class, attr, True); ``module:fn`` -> (module name, fn, False)."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        return getattr(module, class_name), attr, True
    return module_name, path, False


class Tracing:
    """Installed wrappers plus the instance tracking for :data:`TRACKED`."""

    def __init__(self, recorder: SpanRecorder, row_of: Callable) -> None:
        self.recorder = recorder
        self._patcher = Patcher()
        # [object, {attribute: last value}, built inside a task, {attribute: count}]
        self._tracked: list[list] = []
        for entry in _entries():
            owner, attr, is_method = _resolve(entry.target)
            name = entry.target.partition(":")[2]

            def make(fn, entry=entry, name=name):
                return recorder.wrap(name, entry.layer, fn, entry.before, entry.after,
                                     row_of=row_of if entry.rows else None,
                                     task=entry.task)

            if is_method:
                self._patcher.patch_method(owner, attr, make)
            else:
                self._patcher.patch_function(owner, attr, make)
        for target, attributes in TRACKED.items():
            owner, _, _ = _resolve(target + ".__init__")
            self._patcher.patch_method(owner, "__init__",
                                       self._tracking_init(attributes))
        recorder.on_task_end = self.fold

    def _tracking_init(self, attributes: Mapping[str, str]) -> Callable:
        tracked = self._tracked
        recorder = self.recorder

        def make(init):
            def tracking_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                tracked.append([obj, {attr: getattr(obj, attr) for attr in attributes},
                                recorder.task >= 0, attributes])
            return tracking_init
        return make

    def fold(self, task_ended: bool = True) -> None:
        """Add every tracked object's counter movement since the last fold.

        Objects built inside the task that just ended are dropped after
        folding (their run is over); at the end of a pass (``task_ended``
        false) every object is dropped.
        """
        counts = self.recorder.counts
        keep = []
        for item in self._tracked:
            obj, last, inside_task, attributes = item
            for attr, name in attributes.items():
                value = getattr(obj, attr)
                counts[name] += value - last[attr]
                last[attr] = value
            if task_ended and not inside_task:
                keep.append(item)
        self._tracked[:] = keep

    def restore(self) -> None:
        self.fold(task_ended=False)
        self.recorder.on_task_end = None
        self._patcher.restore()
