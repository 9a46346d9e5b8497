"""Closed-form models of one time-shift round under a given sample mix.

Once the attacker's addresses are in the victim's server set — the entire set
for a traditional client whose single DNS lookup was poisoned, or a two-thirds
pool majority for Chronos after the §IV pool attack — the actual time shift is
delivered by ordinary NTP responses carrying shifted timestamps.  The attack
scenarios run that phase at packet level; these helpers answer, without a
simulation, which offset a victim's selection algorithm adopts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.selection import ChronosConfig, chronos_select
from ..ntp.query import TimeSample
from ..ntp.selection import ntpd_select


@dataclass(frozen=True)
class OfflineShiftModel:
    """Closed-form model of a single update round under a given sample mix.

    Used by analyses that do not need the packet-level simulation: given how
    many of the sampled servers are malicious and what shift they report,
    what offset does the victim's algorithm adopt?
    """

    sample_size: int
    malicious_samples: int
    shift: float
    honest_jitter: float = 0.001


def chronos_round_offset(model: OfflineShiftModel, config: Optional[ChronosConfig] = None,
                         enforce_checks: bool = False) -> Optional[float]:
    """Offset a Chronos round adopts for the given sample mix (None = rejected)."""
    config = config or ChronosConfig(sample_size=model.sample_size)
    honest = model.sample_size - model.malicious_samples
    offsets = [model.honest_jitter * ((i % 3) - 1) for i in range(honest)]
    offsets += [model.shift] * model.malicious_samples
    result = chronos_select(offsets, config, enforce_checks=enforce_checks)
    return result.offset if result.accepted else None


def ntpd_round_offset(model: OfflineShiftModel) -> Optional[float]:
    """Offset the baseline ntpd pipeline adopts for the given sample mix."""
    honest = model.sample_size - model.malicious_samples
    samples: list[TimeSample] = [
        TimeSample(server=f"honest-{index}",
                   offset=model.honest_jitter * ((index % 3) - 1),
                   delay=0.02, stratum=2, root_dispersion=0.01,
                   completed_at=0.0)
        for index in range(honest)
    ]
    samples.extend(TimeSample(server=f"evil-{index}", offset=model.shift,
                              delay=0.02, stratum=2, root_dispersion=0.01,
                              completed_at=0.0)
                   for index in range(model.malicious_samples))
    result = ntpd_select(samples)
    return result.offset if result.succeeded else None
