"""Attack × defense-stack matrix experiments.

The paper's story is a matrix: which countermeasure stops which poisoning
vector?  The classic defenses stop neither vector, cookies and 0x20 stop
only blind spoofing, fragment handling stops only the defragmentation
splice, the §V mitigations stop a single poisoning but not a sustained
hijack, and only content authentication (DNSSEC) — or, since the
encrypted-transport subsystem, *strict* DoT with its changed trust model —
stops everything; the ``downgrade`` row shows that opportunistic DoT does
not.  This module fans the full grid — every attack under every named stack —
through the shared :class:`~repro.experiments.scheduler.SweepScheduler`: one
:class:`~repro.experiments.runner.ExperimentSpec` per attack row with the
stacks as an explicit ``param_sets`` sweep, all rows flattened into a single
task stream on one worker pool (no per-row pool spawns, no inter-row
barriers), so each cell aggregates the same seeds and the whole matrix
inherits the scheduler's byte-identical-across-worker-counts determinism.
With a :class:`~repro.experiments.cache.RunCache` attached, extending the
grid by a seed or a stack only computes the new cells.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from .cache import RunCache
from .results import ConfidenceInterval, ExperimentResult
from .runner import ExperimentSpec
from .scheduler import ProgressCallback, SweepScheduler, SweepStats

#: Seconds of hijack that blanket the whole 24-hour generation window.
SUSTAINED_HIJACK_DURATION = 24 * 3600.0 + 1200.0


@dataclass(frozen=True)
class AttackSpec:
    """One matrix row: a registered scenario plus its threat-model params."""

    label: str
    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "defenses" in self.params:
            raise ValueError("attack params must not set 'defenses'; "
                             "that axis belongs to the stack specs")


@dataclass(frozen=True)
class DefenseStackSpec:
    """One matrix column: a named, ordered combination of defenses."""

    name: str
    defenses: tuple[str, ...]
    description: str = ""


#: The pre-transport attack rows, kept as a stable sub-grid: the full-grid
#: pin (:data:`repro.experiments.pins.FULL_GRID_DIGEST`) hashes every one of
#: their cells in order, so transport-era changes cannot silently drift the
#: earlier science.
#: ``chronos_24h_hijack`` is the §V residual threat model: the hijack
#: blankets the whole generation window and the attacker mimics the zone's
#: published profile (4 records, short TTL) — the strongest attacker the
#: mitigations concede to.
LEGACY_ATTACKS: tuple[AttackSpec, ...] = (
    AttackSpec("chronos_poisoning", "chronos_pool_attack",
               {"poison_at_query": 1, "run_time_shift": False,
                "benign_server_count": 120}),
    AttackSpec("chronos_24h_hijack", "chronos_pool_attack",
               {"poison_at_query": 1, "run_time_shift": False,
                "benign_server_count": 120,
                "hijack_duration": SUSTAINED_HIJACK_DURATION,
                "malicious_ttl": 300, "attacker_record_count": 4}),
    AttackSpec("bgp_hijack", "bgp_hijack", {}),
    AttackSpec("frag_poisoning", "frag_poisoning", {}),
    AttackSpec("traditional_client", "traditional_client_attack", {}),
)

#: The default rows: the legacy grid plus the encrypted-transport
#: ``downgrade`` vector (force an opportunistic resolver back to plaintext,
#: then race) — the row that keeps the DoT columns honest.
DEFAULT_ATTACKS: tuple[AttackSpec, ...] = (
    *LEGACY_ATTACKS,
    AttackSpec("downgrade", "downgrade", {}),
)

#: The PR-2/PR-3 defense columns (see :data:`LEGACY_ATTACKS` for why they
#: stay a named sub-grid).  ``classic`` is the empty stack — random
#: TXID/port and response matching are always on — and the §V mitigations
#: appear alone and combined so the matrix contains the paper's mitigation
#: table as a cell slice.
LEGACY_STACKS: tuple[DefenseStackSpec, ...] = (
    DefenseStackSpec("classic", (),
                     "random TXID/port + response matching only"),
    DefenseStackSpec("dns_0x20", ("dns_0x20",), "0x20 case encoding"),
    DefenseStackSpec("dns_cookies", ("dns_cookies",), "RFC 7873 cookies"),
    DefenseStackSpec("frag_reject", ("fragment_rejection",),
                     "refuse fragment-reassembled responses"),
    DefenseStackSpec("dnssec", ("response_signing",),
                     "zone signing + resolver validation"),
    DefenseStackSpec("address_cap", ("address_cap",),
                     "§V mitigation 1 alone"),
    DefenseStackSpec("ttl_discard", ("ttl_discard",),
                     "§V mitigation 2 alone"),
    DefenseStackSpec("section5", ("ttl_discard", "address_cap"),
                     "both §V mitigations"),
    DefenseStackSpec("multi_vantage", ("multi_vantage",),
                     "vantage cross-checks (profile + samples)"),
    DefenseStackSpec("hardened", ("dns_0x20", "dns_cookies", "fragment_rejection",
                                  "ttl_discard", "address_cap", "multi_vantage"),
                     "everything except content authentication"),
)

#: The default columns: the legacy stacks plus the two encrypted-transport
#: policies.  Strict DoT is the first column that clears *every* off-path
#: row — including the §V residual 24-hour hijack — at the trust-model
#: price the paper names; the opportunistic column shows why the policy,
#: not the cryptography, decides whether that protection is real.
DEFAULT_STACKS: tuple[DefenseStackSpec, ...] = (
    *LEGACY_STACKS,
    DefenseStackSpec("dot_strict", ("encrypted_transport",),
                     "strict DNS-over-TLS upstream (fail closed)"),
    DefenseStackSpec("dot_opportunistic", ("encrypted_transport_opportunistic",),
                     "opportunistic DoT (falls back to plaintext)"),
)

#: Availability-hardening columns for fault-injection sweeps (kept out of
#: :data:`DEFAULT_STACKS` so the pinned full-grid digest is untouched).
#: Both are deliberately double-edged — serve-stale prolongs a poisoned
#: entry's tenancy past its TTL, and upstream retries multiply the
#: transactions a blind spoofer can race — so they earn their place as
#: explicit matrix columns rather than always-on resolver behaviour.
RESILIENCE_STACKS: tuple[DefenseStackSpec, ...] = (
    DefenseStackSpec("serve_stale", ("serve_stale",),
                     "RFC 8767 stale answers on upstream failure"),
    DefenseStackSpec("upstream_retries", ("upstream_retries",),
                     "retry timed-out upstream queries with backoff"),
    DefenseStackSpec("stale_retries", ("serve_stale", "upstream_retries"),
                     "both availability hardenings combined"),
)

#: Serving-layer rows: the sustained-load attacker re-races the
#: fragmentation splice every 250 ms instead of once — the offered-load
#: profile that distinguishes a rate-limited nameserver from an unlimited
#: one (kept out of :data:`DEFAULT_ATTACKS`; pinned digests stay put).
SERVING_ATTACKS: tuple[AttackSpec, ...] = (
    AttackSpec("sustained_load", "frag_poisoning",
               {"trigger_count": 12, "trigger_interval": 0.25}),
)

#: Serving-layer columns: response-rate limiting alone, and RRL paired with
#: each DoT policy.  RRL throttles the sustained race but answers plaintext
#: once its bucket refills, so the ``downgrade`` row still clears ``rrl``
#: and ``rrl_plus_dot_opp`` — only the strict pairing closes it.  Kept out
#: of :data:`DEFAULT_STACKS` so the pinned full-grid digest is untouched.
SERVING_STACKS: tuple[DefenseStackSpec, ...] = (
    DefenseStackSpec("rrl", ("response_rate_limit",),
                     "per-/24 UDP response-rate limiting"),
    DefenseStackSpec("rrl_plus_dot",
                     ("response_rate_limit", "encrypted_transport"),
                     "RRL + strict DoT upstream"),
    DefenseStackSpec("rrl_plus_dot_opp",
                     ("response_rate_limit", "encrypted_transport_opportunistic"),
                     "RRL + opportunistic DoT (downgradeable)"),
)


@dataclass
class MatrixCell:
    """One (attack, stack) cell: the per-seed runs and their aggregates."""

    attack: str
    stack: str
    result: ExperimentResult

    @property
    def runs(self) -> int:
        return len(self.result)

    @property
    def success_rate(self) -> float:
        return self.result.success_rate()

    @property
    def success_interval(self) -> ConfidenceInterval:
        return self.result.success_interval()

    def mean(self, key: str) -> Optional[float]:
        values = self.result.numeric_values(key)
        return sum(values) / len(values) if values else None


@dataclass
class DefenseMatrixResult:
    """The full grid, cell-addressable and deterministically digestible."""

    attacks: tuple[AttackSpec, ...]
    stacks: tuple[DefenseStackSpec, ...]
    cells: dict[tuple[str, str], MatrixCell]
    #: Execution accounting from the shared scheduler; deliberately
    #: excluded from :meth:`digest`.
    sweep_stats: SweepStats
    elapsed_seconds: float = 0.0

    def cell(self, attack: str, stack: str) -> MatrixCell:
        try:
            return self.cells[(attack, stack)]
        except KeyError:
            raise KeyError(f"no cell ({attack!r}, {stack!r}); attacks: "
                           f"{[a.label for a in self.attacks]}, stacks: "
                           f"{[s.name for s in self.stacks]}") from None

    def row(self, attack: str) -> list[MatrixCell]:
        return [self.cell(attack, stack.name) for stack in self.stacks]

    def column(self, stack: str) -> list[MatrixCell]:
        return [self.cell(attack.label, stack) for attack in self.attacks]

    # -- determinism ------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over every cell's canonical record encoding, in grid order.

        Wall-clock is excluded (as in :class:`ExperimentResult`), so the
        digest is byte-identical no matter how many workers ran the sweep.
        """
        digest = hashlib.sha256()
        for attack in self.attacks:
            for stack in self.stacks:
                cell = self.cell(attack.label, stack.name)
                digest.update(f"{attack.label}|{stack.name}|".encode())
                digest.update(cell.result.to_json().encode())
        return digest.hexdigest()

    # -- reporting ---------------------------------------------------------------
    def success_table(self) -> dict[str, dict[str, float]]:
        """attack label -> stack name -> success rate."""
        return {attack.label: {stack.name: self.cell(attack.label, stack.name).success_rate
                               for stack in self.stacks}
                for attack in self.attacks}

    def formatted(self) -> list[str]:
        """A printable success-rate table (rows: attacks, columns: stacks)."""
        width = max(len(attack.label) for attack in self.attacks)
        header = " " * width + "".join(f" {stack.name:>13}" for stack in self.stacks)
        lines = [header]
        for attack in self.attacks:
            row = f"{attack.label:<{width}}"
            for stack in self.stacks:
                row += f" {self.cell(attack.label, stack.name).success_rate:>13.2f}"
            lines.append(row)
        return lines

    def residual_hijack_rate(self, stack: str = "section5") -> float:
        """Success rate of the sustained 24-hour hijack under §V mitigations.

        The paper's residual claim is that this stays ≈ 1.0: the mitigations
        stop single poisonings, not an attacker who owns DNS for the whole
        generation window.
        """
        return self.cell("chronos_24h_hijack", stack).success_rate


def matrix_specs(attacks: Sequence[AttackSpec],
                 stacks: Sequence[DefenseStackSpec],
                 seeds: Sequence[int]) -> list[ExperimentSpec]:
    """One :class:`ExperimentSpec` per attack row, stacks as ``param_sets``."""
    return [
        ExperimentSpec(
            scenario=attack.scenario,
            seeds=tuple(seeds),
            base_params=dict(attack.params),
            param_sets=tuple({"defenses": stack.defenses} for stack in stacks),
        )
        for attack in attacks
    ]


def run_defense_matrix(attacks: Sequence[AttackSpec] = DEFAULT_ATTACKS,
                       stacks: Sequence[DefenseStackSpec] = DEFAULT_STACKS,
                       seeds: Sequence[int] = (1, 2),
                       workers: int = 1,
                       cache: Optional[RunCache] = None,
                       on_progress: Optional[ProgressCallback] = None,
                       collect_metrics: bool = False) -> DefenseMatrixResult:
    """Run every attack under every defense stack and aggregate per cell.

    One :class:`ExperimentSpec` per attack row with the stacks as that row's
    explicit ``param_sets`` sweep; all rows execute as one task stream on a
    single shared worker pool.  The cell records — and therefore
    :meth:`DefenseMatrixResult.digest` — are byte-identical across worker
    counts and across cold and warm ``cache`` runs.

    ``on_progress`` and ``collect_metrics`` pass straight to the shared
    scheduler: the former streams ``(done, total)`` as cells complete, the
    latter folds every cell's metrics into ``sweep_stats.metrics``.  Neither
    can move the digest.
    """
    attacks = tuple(attacks)
    stacks = tuple(stacks)
    seeds = tuple(seeds)
    start = time.perf_counter()
    scheduler = SweepScheduler(workers=workers, cache=cache, on_progress=on_progress,
                               collect_metrics=collect_metrics)
    row_results, stats = scheduler.run_specs(matrix_specs(attacks, stacks, seeds))
    cells: dict[tuple[str, str], MatrixCell] = {}
    per_stack = len(seeds)
    for attack, row_result in zip(attacks, row_results):
        # Task order is param_sets-major, seeds inner; slice back per stack.
        for index, stack in enumerate(stacks):
            records = row_result.records[index * per_stack:(index + 1) * per_stack]
            cells[(attack.label, stack.name)] = MatrixCell(
                attack=attack.label,
                stack=stack.name,
                result=ExperimentResult(scenario=attack.scenario, records=records),
            )
    return DefenseMatrixResult(
        attacks=attacks,
        stacks=stacks,
        cells=cells,
        elapsed_seconds=time.perf_counter() - start,
        sweep_stats=stats,
    )
