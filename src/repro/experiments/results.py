"""Experiment aggregation: success rates, shift statistics, confidence intervals.

The paper reports attack outcomes as probabilities over many randomized runs
(poisoning success rates, achieved time shifts across victims).  This module
turns an ordered list of per-run records into those aggregates.  Everything
is deterministic: records keep the order the runner scheduled them in, and
:meth:`ExperimentResult.digest` hashes a canonical JSON encoding so two runs
of the same sweep can be compared byte-for-byte regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any


def _z_value(confidence: float) -> float:
    """Two-sided normal quantile for a confidence level (0 < confidence < 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be strictly between 0 and 1")
    return statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval at the given confidence level."""

    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        return self.high - self.low

    def formatted(self) -> str:
        return f"[{self.low:.3f}, {self.high:.3f}] @ {self.confidence:.0%}"


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because attack sweeps routinely
    produce 0/n or n/n outcomes, where the Wald interval collapses to a
    point.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = _z_value(confidence)
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    # At the exact boundaries the analytic bound is 0 (resp. 1); pin it so
    # floating-point residue from centre - margin does not leak through.
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    return ConfidenceInterval(low, high, confidence)


def mean_interval(values: Sequence[float],
                  confidence: float = 0.95) -> ConfidenceInterval:
    """Normal-approximation interval for a sample mean (degenerate for n < 2)."""
    if not values:
        raise ValueError("cannot compute a mean interval of no values")
    mean = statistics.fmean(values)
    if len(values) < 2:
        return ConfidenceInterval(mean, mean, confidence)
    margin = _z_value(confidence) * statistics.stdev(values) / math.sqrt(len(values))
    return ConfidenceInterval(mean - margin, mean + margin, confidence)


@dataclass(frozen=True)
class RunRecord:
    """One scenario execution: the exact inputs and the metrics it produced.

    ``params`` is the *fully resolved* parameter set (defaults merged with
    overrides), so a record is self-describing and replayable.
    """

    scenario: str
    seed: int
    params: Mapping[str, Any]
    metrics: Mapping[str, Any]

    def canonical(self) -> dict[str, Any]:
        """Plain-dict form used for JSON encoding and digesting."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
        }


@dataclass
class ExperimentResult:
    """Ordered collection of run records plus the aggregate views over them."""

    scenario: str
    records: list[RunRecord] = field(default_factory=list)
    #: Wall-clock duration of the sweep; deliberately excluded from the
    #: digest so parallel and sequential runs of the same sweep compare equal.
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.records)

    # -- metric access -------------------------------------------------------
    def values(self, key: str) -> list[Any]:
        """Every record's value for ``key`` (records lacking it are skipped)."""
        return [record.metrics[key] for record in self.records if key in record.metrics]

    def numeric_values(self, key: str) -> list[float]:
        return [float(value) for value in self.values(key) if value is not None]

    # -- success-rate aggregates ---------------------------------------------
    def success_count(self, key: str = "attack_succeeded") -> int:
        return sum(1 for value in self.values(key) if value)

    def success_rate(self, key: str = "attack_succeeded") -> float:
        values = self.values(key)
        if not values:
            raise KeyError(f"no record carries the metric {key!r}")
        return self.success_count(key) / len(values)

    def success_interval(self, key: str = "attack_succeeded",
                         confidence: float = 0.95) -> ConfidenceInterval:
        values = self.values(key)
        if not values:
            raise KeyError(f"no record carries the metric {key!r}")
        return wilson_interval(self.success_count(key), len(values), confidence)

    # -- scalar aggregates -----------------------------------------------------
    def mean(self, key: str) -> float:
        return statistics.fmean(self.numeric_values(key))

    def median(self, key: str) -> float:
        return statistics.median(self.numeric_values(key))

    def mean_interval(self, key: str, confidence: float = 0.95) -> ConfidenceInterval:
        return mean_interval(self.numeric_values(key), confidence)

    # -- canonical encoding -----------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON encoding of the ordered records (digest input)."""
        return json.dumps([record.canonical() for record in self.records],
                          sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 over the canonical encoding; byte-identical sweeps match."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- reporting ---------------------------------------------------------------
    def summary_lines(self, shift_key: str = "achieved_shift",
                      success_key: str = "attack_succeeded") -> list[str]:
        """Human-readable aggregate block used by benchmarks and examples."""
        lines = [f"scenario: {self.scenario}  runs: {len(self.records)}  "
                 f"wall-clock: {self.elapsed_seconds:.2f}s"]
        if any(success_key in record.metrics for record in self.records):
            rate = self.success_rate(success_key)
            interval = self.success_interval(success_key)
            lines.append(f"success rate ({success_key}): {rate:.3f} "
                         f"{interval.formatted()}")
        shifts = self.numeric_values(shift_key)
        if shifts:
            interval = self.mean_interval(shift_key)
            lines.append(f"{shift_key}: mean {self.mean(shift_key):.3f} "
                         f"median {self.median(shift_key):.3f} {interval.formatted()}")
        return lines
