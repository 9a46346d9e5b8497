"""Incremental campaign execution over the scheduler/cache substrate.

The runner walks the manifest's fixed pipeline of steps and *always*
re-runs every step — which is cheap, because sweep steps stream their
cells through the shared :class:`~repro.experiments.cache.RunCache`: a
step that already completed replays entirely from cache (verified, not
trusted), a step killed mid-flight re-executes only its missing cells,
and a grown seed budget computes only the new column.  The checkpoint
journal (:class:`~repro.campaign.state.CampaignState`) makes the
progress observable and the digests auditable across runs; the cache
makes the resume *correct*.

Determinism contract: a campaign interrupted at any point and resumed
produces byte-identical step digests, analyses, figures, and report body
to an uninterrupted run.  That holds because records come from the cache
(content-addressed), merged metrics replay from the cache's observability
sidecar in task-stream order, and everything the report derives from is
one of those two.  Wall-clock only ever flows into the journal — never
into a digest or the report.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..analysis.mitigations import section5_from_matrix
from ..experiments.cache import RunCache
from ..experiments.matrix import DefenseMatrixResult, run_defense_matrix
from ..experiments.scheduler import SweepScheduler, SweepStats
from .figures import (
    render_curve_svg,
    render_heatmap_markdown,
    render_heatmap_svg,
    svg_digest,
)
from .manifest import CampaignManifest, MatrixSweep, Step
from .report import emit_report
from .state import CampaignState

#: ``on_progress(step_name, done, total)`` — the campaign-level mirror of
#: the scheduler's PR-5 ``(done, total)`` callback.
CampaignProgress = Callable[[str, int, int], None]


class CampaignError(RuntimeError):
    """A step failed; the journal records it and the campaign is resumable."""

    def __init__(self, step: str, cause: BaseException) -> None:
        super().__init__(f"campaign step {step!r} failed: {cause}")
        self.step = step
        self.cause = cause


@dataclass
class StepOutcome:
    """What one step produced in this run (digest + observability)."""

    name: str
    kind: str
    status: str
    digest: str = ""
    previous_digest: Optional[str] = None
    expected_digest: Optional[str] = None
    lines: list[str] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    telemetry: dict[str, Any] = field(default_factory=dict)
    metrics: Optional[dict[str, Any]] = None

    @property
    def drifted(self) -> bool:
        return bool(self.previous_digest) and self.previous_digest != self.digest

    @property
    def pin_ok(self) -> Optional[bool]:
        if self.expected_digest is None:
            return None
        return self.expected_digest == self.digest


@dataclass
class CampaignResult:
    """Everything one campaign run produced, report directory included."""

    manifest: CampaignManifest
    directory: Path
    outcomes: list[StepOutcome]
    report_dir: Optional[Path] = None

    def outcome(self, name: str) -> StepOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no step outcome named {name!r}")

    def step_digests(self) -> dict[str, str]:
        return {outcome.name: outcome.digest for outcome in self.outcomes}

    def formatted(self) -> str:
        lines = [f"campaign {self.manifest.name!r}: "
                 f"{len(self.outcomes)} steps"]
        for outcome in self.outcomes:
            flags = []
            if outcome.drifted:
                flags.append(f"DRIFT (was {outcome.previous_digest[:12]})")
            if outcome.pin_ok is False:
                flags.append(f"PIN MISMATCH (expected "
                             f"{outcome.expected_digest[:12]})")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(f"  {outcome.name:<28} {outcome.status:<6} "
                         f"{outcome.digest[:12]}{suffix}")
        return "\n".join(lines)


def _text_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class CampaignRunner:
    """Drive one campaign directory: state journal, cache and report.

    :meth:`run` is the only place a step changes state in the journal and
    the only place it is saved: (a) when a sweep first reports a cell still
    to run after cache replay, so ``campaign status`` reads ``running`` as
    soon as real work starts; (b) at most every ``progress_interval``
    seconds while cells execute; (c) when a step that executed cells
    completes; (d) when a step fails; (e) once when the run ends.  A warm
    re-run, which executes no cell, writes the journal once.
    """

    def __init__(self, manifest: CampaignManifest, directory: Path,
                 workers: int = 1,
                 on_progress: Optional[CampaignProgress] = None,
                 progress_interval: float = 0.2) -> None:
        self.manifest = manifest
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.on_progress = on_progress
        self.progress_interval = progress_interval
        self.steps: list[Step] = manifest.steps()
        self.state = CampaignState(self.directory / "state.json",
                                   manifest.name, manifest.fingerprint(),
                                   [step.name for step in self.steps])
        self.cache = RunCache(self.directory / "cache")

    def _report_progress(self, step_name: str, done: int, total: int) -> None:
        if self.on_progress is not None:
            self.on_progress(step_name, done, total)

    # -- execution -----------------------------------------------------------
    def run(self) -> CampaignResult:
        state = self.state
        state.begin_run()
        results: dict[str, Any] = {}
        outcomes: list[StepOutcome] = []
        report_dir: Optional[Path] = None
        for step in self.steps:
            total = step.payload.cell_count if step.kind == "sweep" else 1
            state.step_started(step.name, total)
            started = time.monotonic()
            self._report_progress(step.name, 0, total)
            try:
                if step.kind == "sweep":
                    outcome = self._run_sweep(step, results)
                elif step.kind == "analysis":
                    outcome = self._run_analysis(step, results)
                elif step.kind == "figure":
                    outcome = self._run_figure(step, results)
                else:  # report
                    outcome, report_dir = self._run_report(step, outcomes)
            except Exception as exc:
                state.step_failed(step.name, f"{type(exc).__name__}: {exc}")
                state.save()
                self._report_progress(step.name, state.step(step.name)["done"], total)
                raise CampaignError(step.name, exc) from exc
            outcome.telemetry["wall_seconds"] = time.monotonic() - started
            state.step_completed(
                step.name, outcome.digest, metrics=outcome.metrics,
                seeds=step.payload.seeds if step.kind == "sweep" else None,
                telemetry=outcome.telemetry)
            if outcome.telemetry.get("executed"):
                state.save()
            outcome.previous_digest = state.previous_digest(step.name)
            outcome.expected_digest = self.manifest.expected_digests.get(step.name)
            outcomes.append(outcome)
            self._report_progress(step.name, total, total)
        state.save()
        return CampaignResult(manifest=self.manifest, directory=self.directory,
                              outcomes=outcomes, report_dir=report_dir)

    def _run_sweep(self, step: Step, results: dict[str, Any]) -> StepOutcome:
        sweep = step.payload
        saved_at = float("-inf")

        def cell_progress(done: int, _total: int) -> None:
            nonlocal saved_at
            self.state.step_progress(step.name, done)
            # Save points (a) and (b); completion (c) saves the final count.
            moment = time.monotonic()
            if done < sweep.cell_count and moment - saved_at >= self.progress_interval:
                saved_at = moment
                self.state.save()
            self._report_progress(step.name, done, sweep.cell_count)

        if isinstance(sweep, MatrixSweep):
            result: Any = run_defense_matrix(
                attacks=sweep.attacks, stacks=sweep.stacks, seeds=sweep.seeds,
                workers=self.workers, cache=self.cache,
                on_progress=cell_progress, collect_metrics=True)
            stats = result.sweep_stats
        else:  # GridSweep
            scheduler = SweepScheduler(workers=self.workers, cache=self.cache,
                                       on_progress=cell_progress,
                                       collect_metrics=True)
            (result,), stats = scheduler.run_specs([sweep.experiment_spec()])
        results[step.name] = result
        # Every campaign sweep collects metrics.
        return StepOutcome(name=step.name, kind="sweep", status="done",
                           digest=result.digest(), telemetry=_sweep_telemetry(stats),
                           metrics=stats.metrics.to_dict())

    def _run_analysis(self, step: Step, results: dict[str, Any]) -> StepOutcome:
        analysis = step.payload
        matrix = results[f"sweep:{analysis.sweep}"]
        if analysis.kind == "section5":
            comparisons = section5_from_matrix(matrix)
            lines = [comparison.formatted() for comparison in comparisons]
            agree = all(c.verdict_agrees and c.counts_agree
                        for c in comparisons)
            lines.append(f"all rows agree with closed form: {agree}")
        else:  # success_summary
            lines = _success_summary(matrix)
        results[step.name] = lines
        return StepOutcome(name=step.name, kind="analysis", status="done",
                           digest=_text_digest(lines), lines=lines)

    def _run_figure(self, step: Step, results: dict[str, Any]) -> StepOutcome:
        figure = step.payload
        sweep = self.manifest.sweep(figure.sweep)
        result = results[f"sweep:{figure.sweep}"]
        artifacts: dict[str, str] = {}
        lines: list[str] = []
        if figure.kind == "heatmap":
            title = figure.title or (f"{self.manifest.name}: attack success "
                                     f"by defense stack")
            rows = [attack.label for attack in sweep.attacks]
            cols = [stack.name for stack in sweep.stacks]
            table = result.success_table()
            values = [[table.get(row, {}).get(col) for col in cols]
                      for row in rows]
            svg = render_heatmap_svg(title, rows, cols, values)
            artifacts[f"{figure.name}.svg"] = svg
            lines = render_heatmap_markdown(rows, cols, values).splitlines()
        else:  # curve
            title = figure.title or f"{figure.y} by {figure.x}"
            points: list[tuple[str, float]] = []
            for value in sweep.grid[figure.x]:
                # Matched by equality: list- and map-valued ticks are unhashable.
                numbers = [float(record.metrics[figure.y]) for record in result.records
                           if record.params.get(figure.x) == value
                           and record.metrics.get(figure.y) is not None]
                tick = str(value)
                mean = sum(numbers) / len(numbers) if numbers else 0.0
                points.append((tick, mean))
                lines.append(f"{figure.x}={tick}: mean {figure.y} = {mean:.6g} "
                             f"over {len(numbers)} run(s)")
            svg = render_curve_svg(title, figure.x, figure.y,
                                   [(figure.y, points)])
            artifacts[f"{figure.name}.svg"] = svg
        return StepOutcome(name=step.name, kind="figure", status="done",
                           digest=svg_digest(svg), lines=lines, artifacts=artifacts)

    def _run_report(self, step: Step, outcomes: list[StepOutcome]
                    ) -> tuple[StepOutcome, Path]:
        report_dir, report_md = emit_report(self.directory, self.manifest, outcomes)
        digest = hashlib.sha256(report_md.encode("utf-8")).hexdigest()
        return StepOutcome(name=step.name, kind="report", status="done",
                           digest=digest), report_dir


def _sweep_telemetry(stats: SweepStats) -> dict[str, Any]:
    return {
        "tasks": stats.tasks_total,
        "cache_hits": stats.cache_hits,
        "executed": stats.executed,
        "chunks": stats.chunks,
        "tasks_retried": stats.tasks_retried,
        "trace_evictions": stats.trace_evictions,
        "cache_write_errors": stats.cache_write_errors,
        "cache_duplicate_lines": stats.cache_duplicate_lines,
        "metrics_missing": stats.metrics_missing,
        "task_seconds_total": stats.task_seconds_total,
    }


def _success_summary(matrix: DefenseMatrixResult) -> list[str]:
    """Per-attack best stacks and the stacks clearing the whole grid."""
    table = matrix.success_table()
    stack_names = [stack.name for stack in matrix.stacks]
    lines = []
    clear_all = [name for name in stack_names
                 if all(table[attack.label].get(name, 1.0) == 0.0
                        for attack in matrix.attacks)]
    for attack in matrix.attacks:
        row = table[attack.label]
        best_rate = min(row[name] for name in stack_names)
        best = [name for name in stack_names if row[name] == best_rate]
        lines.append(f"{attack.label}: best stacks {', '.join(best)} "
                     f"(success rate {best_rate:.2f})")
    lines.append("stacks clearing every attack: "
                 + (", ".join(clear_all) if clear_all else "none"))
    return lines


def campaign_status(directory: Path) -> str:
    """The ``campaign status`` text view of the checkpoint journal.

    Works while a campaign is running in another process (the journal is
    written atomically) and after it finished or died.
    """
    directory = Path(directory)
    state_data = CampaignState.load(directory / "state.json")
    if state_data is None:
        return f"no readable campaign state under {directory}"
    lines = [f"campaign {state_data['campaign']!r} "
             f"(fingerprint {state_data['fingerprint'][:12]}, "
             f"runs={state_data['runs']})"]
    for name, entry in state_data["steps"].items():
        parts = [f"  {name:<28} {entry['status']:<8}"]
        if "done" in entry and "total_tasks" in entry:
            parts.append(f"{entry['done']}/{entry['total_tasks']} tasks")
        if entry.get("digest"):
            parts.append(f"digest={entry['digest'][:12]}")
        telemetry = entry.get("telemetry", {})
        if "cache_hits" in telemetry:
            parts.append(f"cache_hits={telemetry['cache_hits']}")
        if "wall_seconds" in telemetry:
            parts.append(f"wall={telemetry['wall_seconds']:.2f}s")
        if entry.get("error"):
            parts.append(f"error={entry['error']}")
        lines.append(" ".join(parts))
    return "\n".join(lines)
