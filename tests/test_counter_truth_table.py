"""Truth table: every attribute counter left in ``src/`` equals its obs twin.

Events are counted in :mod:`repro.obs`; an attribute counter stays only
where a scenario result or the benchmark reads it.  :data:`TRUTH_TABLE`
lists each one with the obs counter(s) counting the same events (every
kept attribute has a twin).  Each run below is built inside
``obs.capture()`` with the owning classes' ``__init__`` wrapped to track
their instances; the attribute summed over the instances must equal the
obs total.

The runs: one seed-1 cell per ``DEFAULT_ATTACKS`` row under the
``classic``, ``dot_strict`` and ``dot_opportunistic`` stacks; every
``TRANSPORT_PROFILES`` world through ``time_lookups``; the chaos grid's
cells; and two extras so that no row goes unexercised (none of the
others rate-limits or panics a Chronos client): the serving attacks under
``rrl`` and the seed-3 Chronos time shift of
``tests/test_scenario_metrics_gate.py``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

import pytest
from _counters import total

from repro import obs
from repro.experiments import run_scenario
from repro.experiments.matrix import (
    DEFAULT_ATTACKS,
    DEFAULT_STACKS,
    SERVING_ATTACKS,
    SERVING_STACKS,
    run_defense_matrix,
)
from repro.experiments.pins import chaos_grid_specs
from repro.experiments.scenarios import TRANSPORT_PROFILES, TransportOverheadConfig, time_lookups
from repro.experiments.scheduler import SweepScheduler

#: ``module:Class`` -> {attribute: obs counters whose sum it must equal};
#: a key ``name`` sums every label set, ``name{label=value}`` one.
TRUTH_TABLE = {
    "repro.netsim.simulator:Simulator": {
        "events_cancelled": ("sim.events_cancelled",),
    },
    "repro.netsim.transport:TCPStack": {
        "syns_dropped": ("tcp.syns_dropped",),
    },
    "repro.dns.resolver:RecursiveResolver": {
        "queries_forwarded": ("dns.queries_forwarded",),
        "responses_rejected": ("dns.responses_rejected", "dns.responses_unmatched"),
        "queries_answered_from_cache": ("dns.cache_hits",),
    },
    "repro.dns.transport:ResolverUpstreamTransport": {
        "connections_opened": ("dns.pool.connections_opened",),
        "downgraded_queries": ("dns.downgraded_queries",),
        "encrypted_failures": ("dns.encrypted_failures",),
    },
    # Every query placed on a stream: one per encrypted dispatch, one per
    # reconnect re-dispatch, one per TC retry over plain TCP.
    "repro.dns.transport:PooledConnection": {
        "queries_sent": ("dns.encrypted_queries", "dns.pool.reconnects",
                         "dns.pool.connections_opened{protocol=tcp}"),
    },
    "repro.dns.nameserver:AuthoritativeNameserver": {
        "queries_received": ("ns.queries_received",),
    },
    "repro.dns.nameserver:ResponseRateLimiter": {
        "responses_dropped": ("ns.rrl{verdict=drop}",),
        "responses_slipped": ("ns.rrl{verdict=slip}",),
    },
    "repro.attacks.attacker:ImpersonatingNameserver": {
        "hijacked_queries_answered": ("attack.hijacked_queries_answered",),
    },
    "repro.attacks.downgrade:SynFloodDowngrader": {
        "syns_sent": ("attack.syns_sent",),
    },
    "repro.core.chronos_client:ChronosClient": {
        "panic_count": ("chronos.panic_rounds",),
    },
}

GRID_STACKS = tuple(stack for stack in DEFAULT_STACKS
                    if stack.name in ("classic", "dot_strict", "dot_opportunistic"))


def _owner(target: str) -> type:
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


@contextmanager
def _tracking():
    """Wrap each owning class's own ``__init__``; yields target -> instances."""
    instances: dict[str, list] = {target: [] for target in TRUTH_TABLE}
    with pytest.MonkeyPatch.context() as patch:
        for target, built in instances.items():
            owner = _owner(target)

            def tracking_init(obj, *args, _init=owner.__dict__["__init__"],
                              _built=built, **kwargs):
                _init(obj, *args, **kwargs)
                _built.append(obj)

            patch.setattr(owner, "__init__", tracking_init)
        yield instances


def observe(run) -> dict[str, tuple[int, int]]:
    """``target.attribute`` -> (attribute summed over instances, obs total)."""
    with _tracking() as instances, obs.capture(trace=False) as observed:
        run()
    snapshot = observed.metrics.snapshot()
    return {f"{target}.{attribute}": (sum(getattr(obj, attribute)
                                          for obj in instances[target]),
                                      total(snapshot, keys))
            for target, attributes in TRUTH_TABLE.items()
            for attribute, keys in attributes.items()}


def _cell(attack, stack):
    return lambda: run_defense_matrix(attacks=(attack,), stacks=(stack,), seeds=(1,))


RUNS = {
    **{f"grid:{attack.label}/{stack.name}": _cell(attack, stack)
       for attack in DEFAULT_ATTACKS for stack in GRID_STACKS},
    **{f"serving:{transport}": (lambda transport=transport: time_lookups(
        TransportOverheadConfig(transport, queries=3), 1))
       for transport in TRANSPORT_PROFILES},
    **{f"chaos:{index}": (lambda spec=spec: SweepScheduler(workers=1).run_specs([spec]))
       for index, spec in enumerate(chaos_grid_specs())},
    **{f"extra:rrl/{attack.label}": _cell(attack, SERVING_STACKS[0])
       for attack in SERVING_ATTACKS},
    "extra:chronos_panic": lambda: run_scenario("chronos_pool_attack", seed=3,
                                                params={"benign_server_count": 120}),
}


@pytest.fixture(scope="module")
def observed_runs() -> dict[str, dict[str, tuple[int, int]]]:
    return {label: observe(run) for label, run in RUNS.items()}


@pytest.mark.parametrize("kind", ["grid", "serving", "chaos", "extra"])
def test_every_kept_attribute_equals_its_obs_twin(observed_runs, kind):
    mismatches = [f"{label}: {name} attribute {held} != obs {counted}"
                  for label, pairs in observed_runs.items() if label.startswith(kind + ":")
                  for name, (held, counted) in pairs.items() if held != counted]
    assert mismatches == []


def test_every_table_row_is_exercised(observed_runs):
    idle = [name for name in next(iter(observed_runs.values()))
            if not any(pairs[name][0] for pairs in observed_runs.values())]
    assert idle == []
