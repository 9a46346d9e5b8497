"""Packet-level cross-validation of the fleet engine.

The fleet engine is only trustworthy if, on populations small enough to run
through the packet-level testbed, both paths tell the *same story client for
client*.  This module pins that overlap:

* :func:`gate_fleet_config` builds a deterministic 28-client population —
  one client per resolver, starts on the query grid (``start_i = i * 3600``),
  hijack window placed so the effective poison query spans ``k = 24 .. 2``
  (clients 2..24), hits ``k = 1`` (client 25) and leaves four clients
  unpoisoned (0, 1, 26, 27).  ``dedupe=False`` puts both paths in the
  address-counting regime (every cache hit re-counts the flood), where
  composition is exactly closed-form.
* :func:`fleet_gate_records` runs the population through the engine;
  :func:`packet_gate_records` replays *every client* as its own
  ``chronos_pool_attack`` run (the packet testbed simulates one victim at a
  time) configured with the engine-derived poison query — the per-client
  ``k`` themselves are asserted against the analytic construction by the
  test suite, so a propagation bug cannot hide by feeding both sides.
* :func:`population_digest` hashes the canonical per-client records;
  :func:`equivalence_digests` returns the (packet, fleet) digest pair that
  must be equal seed for seed, with and without numpy.

Canonicalisation: all counts are exact integers on both paths.  The shift
phase is compared only for clients whose pool is purely malicious
(``k = 1``: zero benign servers), where the packet outcome is deterministic
up to NTP fixed-point quantisation (the 2⁻³² s timestamp grid injects
~1e-7 s per round); ``achieved_shift`` is therefore canonicalised at
millisecond precision, far above the noise and far below any decision
boundary in the gate construction.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping, Sequence
from typing import Any, Optional

from ..defenses.stack import DefenseSpec
from ..experiments.runner import run_scenario
from .batch import FleetPolicy
from .engine import FleetConfig, FleetEngine

GATE_CLIENTS = 28
GATE_INTERVAL = 3600.0
GATE_QUERIES = 24

#: Query k of client i lands at ``(i + k - 1) * interval``; this window
#: contains exactly the grid point ``25 * interval``, so client i is first
#: poisoned at query ``26 - i`` (clipped to the 1..24 range).
GATE_HIJACK_START = GATE_QUERIES * GATE_INTERVAL + (GATE_INTERVAL - 300.0)
GATE_HIJACK_DURATION = 600.0


def expected_gate_poison_query(client: int) -> Optional[int]:
    """The analytically expected poison query of a gate client."""
    k = 26 - client
    if client >= 25:
        # Starts at or after the poisoning instant: poisoned from query 1 if
        # its resolver is reached at all — only client 25 queries in-window.
        return 1 if client == 25 else None
    return k if 1 <= k <= GATE_QUERIES else None


def gate_fleet_config(seed: int, *, clients: int = GATE_CLIENTS,
                      malicious_ttl: int = FleetPolicy.malicious_ttl,
                      defenses: DefenseSpec = (),
                      target_shift: float = 600.0, update_rounds: int = 5,
                      backend: Optional[str] = None) -> FleetConfig:
    """The gate population: deterministic starts, one resolver per client;
    ``defenses`` reach the packet clients too (:func:`packet_gate_records`)."""
    if clients > 64:
        raise ValueError("the equivalence gate is meant for <=64 clients")
    policy = FleetPolicy(
        query_count=GATE_QUERIES,
        query_interval=GATE_INTERVAL,
        malicious_ttl=malicious_ttl,
        dedupe=False,
        defenses=defenses,
    )
    return FleetConfig(
        clients=clients,
        resolvers=clients,
        seed=seed,
        explicit_starts=tuple(i * GATE_INTERVAL for i in range(clients)),
        policy=policy,
        hijack_start=GATE_HIJACK_START,
        hijack_duration=GATE_HIJACK_DURATION,
        target_shift=target_shift,
        update_rounds=update_rounds,
        backend=backend,
    )


def _shift_comparable(record: Mapping[str, Any]) -> bool:
    """Shift metrics are compared only where they are deterministic: a pool
    with no benign servers panics to exactly the target on round one."""
    return record["benign"] == 0 and record["malicious"] > 0


def _canonical(client: int, seed: int, poison_at_query: Optional[int],
               metrics: Mapping[str, Any], with_shift: bool) -> dict[str, Any]:
    record = {
        "client": client,
        "seed": seed,
        "poison_at_query": poison_at_query,
        "attack_succeeded": bool(metrics["attack_succeeded"]),
        "benign": int(metrics["benign"]),
        "malicious": int(metrics["malicious"]),
        "pool_size": int(metrics["pool_size"]),
        "cache_hits": int(metrics["cache_hits"]),
        "poisoned_queries": [int(q) for q in metrics["poisoned_queries"]],
    }
    if with_shift:
        record.update({
            "achieved_shift": round(float(metrics["achieved_shift"]), 3),
            "shift_achieved": bool(metrics["shift_achieved"]),
            "updates_run": int(metrics["updates_run"]),
            "panic_rounds": int(metrics["panic_rounds"]),
        })
    return record


def fleet_gate_records(seed: int, **gate_kwargs: Any) -> list[dict[str, Any]]:
    """Canonical per-client records of the gate population, engine path."""
    config = gate_fleet_config(seed, **gate_kwargs)
    _, details = FleetEngine(config).run_detailed()
    records = []
    for detail in details:
        metrics = dict(detail)
        metrics["attack_succeeded"] = detail["attacker_two_thirds"]
        records.append(_canonical(detail["client"], seed,
                                  detail["poison_at_query"], metrics,
                                  _shift_comparable(detail)))
    return records


def packet_gate_records(seed: int, fleet_records: Sequence[Mapping[str, Any]],
                        **gate_kwargs: Any) -> list[dict[str, Any]]:
    """The same clients, each replayed through the packet-level testbed.

    The packet simulator models one victim per run; a gate client maps onto
    a run whose ``poison_at_query`` is the engine-derived index (``None``
    for unpoisoned clients — their resolver is never hijacked).
    """
    config = gate_fleet_config(seed, **gate_kwargs)
    records = []
    for fleet_record in fleet_records:
        poison = fleet_record["poison_at_query"]
        with_shift = _shift_comparable(fleet_record)
        params = {
            "poison_at_query": poison,
            "benign_server_count": config.policy.benign_servers,
            "attacker_record_count": config.policy.attacker_records,
            "malicious_ttl": config.policy.malicious_ttl,
            "hijack_duration": config.hijack_duration,
            "dedupe": False,
            "defenses": config.policy.defenses,
            "run_time_shift": with_shift,
            "target_shift": config.target_shift,
            "update_rounds": config.update_rounds,
        }
        metrics = run_scenario("chronos_pool_attack", seed, params)
        records.append(_canonical(fleet_record["client"], seed, poison,
                                  metrics, with_shift))
    return records


def population_digest(records: Sequence[Mapping[str, Any]]) -> str:
    """SHA-256 of the canonical JSON encoding of per-client records."""
    payload = json.dumps(list(records), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def equivalence_digests(seeds: Sequence[int],
                        **gate_kwargs: Any) -> tuple[str, str]:
    """``(packet_digest, fleet_digest)`` over the gate population and seeds.

    Equality means the vectorized engine and the packet simulator agree on
    every compared field of every client for every seed.
    """
    packet_all: list[dict[str, Any]] = []
    fleet_all: list[dict[str, Any]] = []
    for seed in seeds:
        fleet = fleet_gate_records(seed, **gate_kwargs)
        fleet_all.extend(fleet)
        packet_all.extend(packet_gate_records(seed, fleet, **gate_kwargs))
    return population_digest(packet_all), population_digest(fleet_all)
