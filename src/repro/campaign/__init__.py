"""Campaign observatory: resumable studies over the sweep substrate.

A *campaign* is a declarative study — named sweeps over scenarios ×
defense stacks × seed budgets, plus the analyses and figures derived from
them — compiled into a fixed pipeline (sweeps, analyses, figures, then
the report) and executed incrementally over
:class:`~repro.experiments.scheduler.SweepScheduler` and
:class:`~repro.experiments.cache.RunCache`.  The package adds the
layer the cell-level substrate lacks: an atomic checkpoint journal, a
live status surface, and a self-contained report artifact, with the
guarantee that a SIGKILLed campaign resumes where it stopped and
reproduces byte-identical step digests and report bytes.

Entry points: :func:`run_campaign` (one call: manifest dict in,
:class:`CampaignResult` out), :func:`campaign_status` (text view), and
``python -m repro.campaign`` (CLI).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any, Optional

from .manifest import (
    ATTACK_GROUPS,
    STACK_GROUPS,
    AnalysisSpec,
    CampaignManifest,
    FigureSpec,
    GridSweep,
    MatrixSweep,
    Step,
)
from .report import build_report_markdown, emit_report
from .runner import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    StepOutcome,
    campaign_status,
)
from .state import CampaignState

__all__ = [
    "ATTACK_GROUPS",
    "STACK_GROUPS",
    "AnalysisSpec",
    "CampaignError",
    "CampaignManifest",
    "CampaignResult",
    "CampaignRunner",
    "CampaignState",
    "FigureSpec",
    "GridSweep",
    "MatrixSweep",
    "Step",
    "StepOutcome",
    "build_report_markdown",
    "campaign_status",
    "emit_report",
    "run_campaign",
]


def run_campaign(spec: Mapping[str, Any] | CampaignManifest, directory: Path,
                 workers: int = 1,
                 on_progress: Optional[Callable[[str, int, int], None]] = None,
                 ) -> CampaignResult:
    """Validate (if needed) and run a campaign in *directory*.

    Safe to call repeatedly with the same directory: completed work
    replays from the campaign's cache and only missing cells execute.
    """
    manifest = (spec if isinstance(spec, CampaignManifest)
                else CampaignManifest.from_spec(spec))
    runner = CampaignRunner(manifest, Path(directory), workers=workers,
                            on_progress=on_progress)
    return runner.run()
