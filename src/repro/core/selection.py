"""The Chronos time-sampling / selection algorithm (Deutsch et al., NDSS 2018).

Chronos replaces ntpd's select/cluster/combine pipeline with a provably
secure procedure (the paper under reproduction summarises it in §III):

1. sample ``m`` servers uniformly at random from a large pool;
2. order the obtained time samples (offsets relative to the local clock) and
   **discard the bottom third and the top third**;
3. check that the surviving samples agree with each other (lie within a small
   window ``w``) and with the local clock (their average is within an
   acceptable drift-derived bound);
4. if the checks pass, adjust the clock to the average of the survivors;
   otherwise resample, and after ``max_retries`` failed attempts enter
   *panic mode*: query every server in the pool, again discard the top and
   bottom thirds, and average the rest.

The security argument is that an attacker controlling fewer than a third of
the queried servers can neither drag the trimmed average far from true time
nor force panic mode to a bad value.  The argument silently assumes the pool
itself has an honest (two-thirds) super-majority — the assumption the DSN
paper's DNS attack destroys.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from statistics import mean
from typing import Optional


class ChronosConfigError(ValueError):
    """Raised when a :class:`ChronosConfig` is internally inconsistent."""


@dataclass(frozen=True)
class ChronosConfig:
    """Parameters of the Chronos algorithm.

    Defaults follow the NDSS'18 evaluation: samples of ``m = 15`` servers,
    drift bound of 10 ppm, a per-sample error bound ``err`` of 100 ms, and at
    most two resamplings before panic.
    """

    #: Number of servers sampled per update (``m``).
    sample_size: int = 15
    #: Bound on the time-sample error of an honest server (seconds); the
    #: agreement window is ``2 * err``.
    err: float = 0.1
    #: Assumed local clock drift (parts per million) used for the
    #: local-agreement bound between updates.
    drift_ppm: float = 10.0
    #: Number of resampling attempts before panic mode (``K``).
    max_retries: int = 2
    #: Interval between Chronos updates (seconds).
    poll_interval: float = 3600.0 / 4

    def __post_init__(self) -> None:
        if self.sample_size < 3:
            raise ChronosConfigError("sample_size must be at least 3")
        if self.err <= 0:
            raise ChronosConfigError("err must be positive")
        if self.max_retries < 0:
            raise ChronosConfigError("max_retries cannot be negative")
        if self.poll_interval <= 0:
            raise ChronosConfigError("poll_interval must be positive")

    @property
    def trim_count(self) -> int:
        """How many samples are discarded at *each* end (``m // 3``)."""
        return self.sample_size // 3

    @property
    def agreement_window(self) -> float:
        """Maximum spread allowed among surviving samples (``2 * err``)."""
        return 2.0 * self.err

    def local_bound(self, elapsed_since_update: float) -> float:
        """How far the surviving average may be from the local clock."""
        return self.err + self.drift_ppm * 1e-6 * max(elapsed_since_update, 0.0)


class SelectionStatus(enum.Enum):
    """Outcome of a single Chronos sampling attempt."""

    OK = "ok"
    TOO_FEW_SAMPLES = "too-few-samples"
    WIDE_SPREAD = "wide-spread"
    FAR_FROM_LOCAL = "far-from-local"


@dataclass(frozen=True)
class ChronosSelectionResult:
    """Result of applying the Chronos selection rule to one set of samples."""

    status: SelectionStatus
    offset: Optional[float]
    surviving_offsets: tuple[float, ...]
    discarded_offsets: tuple[float, ...]

    @property
    def accepted(self) -> bool:
        return self.status is SelectionStatus.OK


def trim_offsets(offsets: Sequence[float], trim_count: int) -> tuple[list[float], list[float]]:
    """Order offsets and drop ``trim_count`` from each end.

    Returns ``(survivors, discarded)``.
    """
    ordered = sorted(offsets)
    if trim_count == 0:
        return ordered, []
    if len(ordered) <= 2 * trim_count:
        return [], ordered
    survivors = ordered[trim_count:len(ordered) - trim_count]
    discarded = ordered[:trim_count] + ordered[len(ordered) - trim_count:]
    return survivors, discarded


def chronos_select(offsets: Sequence[float], config: ChronosConfig,
                   elapsed_since_update: float = 0.0) -> ChronosSelectionResult:
    """Apply the Chronos selection rule to offsets measured this round.

    ``offsets`` are clock offsets relative to the local clock (what the NTP
    exchange computes), so the "agreement with the local clock" check is a
    bound on the surviving average's absolute value.  The trimmed average
    is adopted only if both agreement checks pass; :func:`panic_select` is
    the unchecked last resort.
    """
    minimum_required = 2 * config.trim_count + 1
    if len(offsets) < minimum_required:
        return ChronosSelectionResult(SelectionStatus.TOO_FEW_SAMPLES, None, (), tuple(offsets))
    survivors, discarded = trim_offsets(offsets, config.trim_count)
    if not survivors:
        return ChronosSelectionResult(SelectionStatus.TOO_FEW_SAMPLES, None, (), tuple(offsets))
    average = mean(survivors)
    spread = max(survivors) - min(survivors)
    if spread > config.agreement_window:
        return ChronosSelectionResult(SelectionStatus.WIDE_SPREAD, None,
                                      tuple(survivors), tuple(discarded))
    if abs(average) > config.local_bound(elapsed_since_update):
        return ChronosSelectionResult(SelectionStatus.FAR_FROM_LOCAL, None,
                                      tuple(survivors), tuple(discarded))
    return ChronosSelectionResult(SelectionStatus.OK, average,
                                  tuple(survivors), tuple(discarded))


def panic_select(offsets: Sequence[float], config: ChronosConfig) -> ChronosSelectionResult:
    """Panic mode: trim a third at each end of *all* pool samples and average.

    Panic mode ignores the agreement checks — it is the last-resort recovery
    step — which is exactly why an attacker holding two-thirds of the *pool*
    (as after the DNS attack) controls its outcome completely.
    """
    trim = len(offsets) // 3
    ordered = sorted(offsets)
    survivors = ordered[trim:len(ordered) - trim] if len(ordered) > 2 * trim else ordered
    if not survivors:
        return ChronosSelectionResult(SelectionStatus.TOO_FEW_SAMPLES, None, (), tuple(offsets))
    discarded = ordered[:trim] + ordered[len(ordered) - trim:] if trim else []
    return ChronosSelectionResult(SelectionStatus.OK, mean(survivors),
                                  tuple(survivors), tuple(discarded))
