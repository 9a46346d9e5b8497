"""Self-contained campaign report artifacts.

Every campaign run ends by emitting ``<dir>/report/``:

``report.md``
    The deterministic study document — manifest summary, the digest
    ledger with drift/pin highlighting, each analysis, each figure's
    markdown/text view, and the merged-metrics appendix.  Contains no
    wall-clock, timestamps, or run counters, so an interrupted-and-resumed
    campaign emits byte-identical bytes to an uninterrupted one.
``<figure>.svg``
    Zero-dependency figures referenced from the markdown, also
    byte-deterministic.

The whole directory is byte-identical across runs.  Run-specific
telemetry (per-step wall-clock, cache hits, executed counts) lives only in
the checkpoint journal, ``<dir>/state.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..obs.metrics import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .manifest import CampaignManifest
    from .runner import StepOutcome


def _ledger_rows(outcomes: list[StepOutcome]) -> list[str]:
    """Digest ledger: one row per non-report step, drift and pins called out.

    "ok" covers both first-ever completion and a verified re-run — the two
    must render identically or resumed and fresh campaign directories would
    produce different reports.  Only an actual digest *change* (drift) or a
    violated manifest pin gets flagged.
    """
    rows = ["| step | digest | status |", "|---|---|---|"]
    for outcome in outcomes:
        status = "ok"
        if outcome.drifted:
            status = f"**DRIFT** (was `{outcome.previous_digest[:12]}`)"
        if outcome.pin_ok is True:
            status += ", pinned"
        elif outcome.pin_ok is False:
            status = (f"**PIN MISMATCH** (expected "
                      f"`{outcome.expected_digest[:12]}`)")
        rows.append(f"| `{outcome.name}` | `{outcome.digest[:12]}` | {status} |")
    return rows


def build_report_markdown(manifest: CampaignManifest,
                          outcomes: list[StepOutcome]) -> str:
    lines = [f"# Campaign report: {manifest.name}", ""]
    lines.append(f"Manifest fingerprint: `{manifest.fingerprint()[:12]}`")
    lines.append("")

    lines.append("## Study")
    lines.append("")
    for sweep in manifest.sweeps:
        if sweep.kind == "matrix":
            lines.append(f"- sweep `{sweep.name}` (matrix): "
                         f"{len(sweep.attacks)} attacks x "
                         f"{len(sweep.stacks)} stacks x "
                         f"{len(sweep.seeds)} seeds = "
                         f"{sweep.cell_count} cells")
        else:
            lines.append(f"- sweep `{sweep.name}` (grid): scenario "
                         f"`{sweep.scenario}`, "
                         f"{sweep.cell_count} cells over seeds "
                         f"{list(sweep.seeds)}")
    lines.append("")

    lines.append("## Digest ledger")
    lines.append("")
    lines.extend(_ledger_rows([o for o in outcomes if o.kind != "report"]))
    lines.append("")

    for outcome in outcomes:
        if outcome.kind == "analysis":
            lines.append(f"## Analysis: {outcome.name.split(':', 1)[1]}")
            lines.append("")
            lines.append("```")
            lines.extend(outcome.lines)
            lines.append("```")
            lines.append("")
    for outcome in outcomes:
        if outcome.kind == "figure":
            figure_name = outcome.name.split(":", 1)[1]
            lines.append(f"## Figure: {figure_name}")
            lines.append("")
            for filename in sorted(outcome.artifacts):
                lines.append(f"![{figure_name}]({filename})")
            lines.append("")
            if outcome.lines:
                first = outcome.lines[0]
                if first.startswith("|"):
                    lines.extend(outcome.lines)
                else:
                    lines.append("```")
                    lines.extend(outcome.lines)
                    lines.append("```")
                lines.append("")

    metric_outcomes = [o for o in outcomes if o.kind == "sweep" and o.metrics]
    if metric_outcomes:
        lines.append("## Merged metrics appendix")
        lines.append("")
        lines.append("Per-sweep `MetricsSnapshot`s folded in task-stream "
                     "order; replayed from the cache's observability sidecar "
                     "on resumed runs, so these values are "
                     "worker-count- and interruption-independent.")
        lines.append("")
        for outcome in metric_outcomes:
            snapshot = MetricsSnapshot.from_dict(outcome.metrics)
            lines.append(f"### `{outcome.name}`")
            lines.append("")
            lines.append("```")
            lines.extend(snapshot.formatted() or ["(no metrics recorded)"])
            lines.append("```")
            lines.append("")

    lines.append("Per-step wall-clock and cache telemetry: `state.json` "
                 "(run-specific, intentionally outside this document).")
    lines.append("")
    return "\n".join(lines)


def emit_report(directory: Path, manifest: CampaignManifest,
                outcomes: list[StepOutcome]) -> tuple[Path, str]:
    """Write the report directory; returns ``(report_dir, report_md)``."""
    report_dir = Path(directory) / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    for outcome in outcomes:
        for filename, content in outcome.artifacts.items():
            (report_dir / filename).write_text(content, encoding="utf-8")
    report_md = build_report_markdown(manifest, outcomes)
    (report_dir / "report.md").write_text(report_md, encoding="utf-8")
    return report_dir, report_md
