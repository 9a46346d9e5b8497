"""Declarative campaign manifests compiled into a fixed pipeline of steps.

A campaign is a *study*: several named sweeps (attack × defense matrix
grids and/or parameter-grid sweeps) plus the analyses and figures derived
from them, executed incrementally over the
:class:`~repro.experiments.scheduler.SweepScheduler` /
:class:`~repro.experiments.cache.RunCache` substrate and always ending in
a self-contained report artifact.  The manifest is a plain dict (JSON on
disk) so studies are diffable, versionable and shareable:

.. code-block:: python

    {
        "name": "chronos-study",
        "seeds": 4,                         # default budget: seeds 1..4
        "sweeps": {
            "grid":     {"kind": "matrix", "attacks": "default",
                         "stacks": "default"},
            "overhead": {"kind": "grid", "scenario": "transport_overhead",
                         "grid": {"transport": ["udp", "tcp", "dot", "doh"]}},
        },
        "analyses": {"section5": {"kind": "section5", "sweep": "grid"}},
        "figures": {
            "heatmap":  {"kind": "heatmap", "sweep": "grid"},
            "overhead": {"kind": "curve", "sweep": "overhead",
                         "x": "transport", "y": "mean_time_to_answer"},
        },
        "expected_digests": {"sweep:grid": "8fd76ec9..."},   # optional pins
    }

Attack and stack axes name the registered groups from
:mod:`repro.experiments.matrix` (``"legacy"``, ``"default"``,
``"serving"``, ...) and/or inline dicts, so a manifest can reproduce the
pinned grids or define brand-new ones; grid values may be any JSON lists.
The compiled manifest is plain data.  :meth:`CampaignManifest.steps` is
its fixed pipeline (every sweep, then the analyses, then the figures,
then the report), and :meth:`CampaignManifest.fingerprint` hashes the
canonical spec — the checkpoint journal stores it, so a drifted manifest
is detected instead of silently resuming the wrong study.
"""

from __future__ import annotations

import copy
import hashlib
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Optional

from ..analysis.mitigations import SECTION5_MATRIX_CELLS
from ..defenses.registry import available_defenses
from ..experiments.cache import canonical_json
from ..experiments.matrix import (
    DEFAULT_ATTACKS,
    DEFAULT_STACKS,
    LEGACY_ATTACKS,
    LEGACY_STACKS,
    RESILIENCE_STACKS,
    SERVING_ATTACKS,
    SERVING_STACKS,
    AttackSpec,
    DefenseStackSpec,
    matrix_specs,
    require_unique_axes,
)
from ..experiments.registry import available_scenarios
from ..experiments.runner import ExperimentSpec, require_valid_seeds, resolve_spec_tasks

#: Named attack-row groups a manifest may reference by string.
ATTACK_GROUPS: dict[str, tuple[AttackSpec, ...]] = {
    "legacy": LEGACY_ATTACKS,
    "default": DEFAULT_ATTACKS,
    "serving": SERVING_ATTACKS,
}

#: Named defense-column groups a manifest may reference by string.
STACK_GROUPS: dict[str, tuple[DefenseStackSpec, ...]] = {
    "legacy": LEGACY_STACKS,
    "default": DEFAULT_STACKS,
    "resilience": RESILIENCE_STACKS,
    "serving": SERVING_STACKS,
}

SWEEP_KINDS = ("matrix", "grid")
ANALYSIS_KINDS = ("section5", "success_summary")
FIGURE_KINDS = ("heatmap", "curve")
STEP_REPORT = "report"


def _resolve_seeds(spec: Any, default: tuple[int, ...]) -> tuple[int, ...]:
    """A seed budget: ``None`` inherits, ``n`` means 1..n, a list is explicit."""
    if spec is None:
        return default
    if isinstance(spec, bool):
        raise ValueError("seed budget must be an int or a list of ints")
    if isinstance(spec, int):
        if spec < 1:
            raise ValueError("seed budget must be at least 1")
        return tuple(range(1, spec + 1))
    if isinstance(spec, Sequence) and not isinstance(spec, str):
        seeds = tuple(spec)
        require_valid_seeds(seeds)
        return seeds
    raise ValueError(f"unsupported seed budget: {spec!r}")


def _resolve_axis(spec: Any, groups: Mapping[str, tuple[Any, ...]], cls: type,
                  build: Callable[[Mapping[str, Any]], Any], what: str
                  ) -> tuple[Any, ...]:
    """Matrix rows or columns from a group name, inline dicts, or a mixed list."""
    if isinstance(spec, str):
        try:
            return groups[spec]
        except KeyError:
            raise ValueError(f"unknown {what} group {spec!r}; known: "
                             f"{sorted(groups)}") from None
    if isinstance(spec, Mapping):
        spec = [spec]
    if not isinstance(spec, Sequence):
        raise ValueError(f"unsupported {what}s spec: {spec!r}")
    items: list[Any] = []
    for entry in spec:
        if isinstance(entry, str):
            items.extend(_resolve_axis(entry, groups, cls, build, what))
        elif isinstance(entry, Mapping):
            unknown = set(entry) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
            items.append(build(entry))
        else:
            raise ValueError(f"unsupported {what} entry: {entry!r}")
    return tuple(items)


def _attack(entry: Mapping[str, Any]) -> AttackSpec:
    scenario = entry.get("scenario")
    if not scenario:
        raise ValueError(f"attack entry needs a 'scenario': {entry!r}")
    _require_scenario(scenario)
    params = entry.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(f"attack {scenario!r}: 'params' must be a mapping")
    return AttackSpec(label=str(entry.get("label", scenario)), scenario=scenario,
                      params=dict(params))


def _stack(entry: Mapping[str, Any]) -> DefenseStackSpec:
    if "name" not in entry:
        raise ValueError(f"stack entry needs a 'name': {entry!r}")
    defenses, registered = entry.get("defenses", ()), available_defenses()
    if isinstance(defenses, str) or not isinstance(defenses, Sequence) or not all(
            isinstance(name, str) and name in registered for name in defenses):
        raise ValueError(f"stack {entry['name']!r}: 'defenses' must list "
                         f"registered defenses, got {defenses!r}")
    return DefenseStackSpec(name=str(entry["name"]), defenses=tuple(defenses),
                            description=str(entry.get("description", "")))


def _require_scenario(name: Any) -> None:
    if not isinstance(name, str) or name not in available_scenarios():
        raise ValueError(f"unknown scenario {name!r}")


@dataclass(frozen=True)
class MatrixSweep:
    """One named attack × defense-stack grid within a campaign."""

    name: str
    attacks: tuple[AttackSpec, ...]
    stacks: tuple[DefenseStackSpec, ...]
    seeds: tuple[int, ...]

    kind = "matrix"

    def __post_init__(self) -> None:
        require_unique_axes(self.attacks, self.stacks)
        for spec in matrix_specs(self.attacks, self.stacks, self.seeds):
            resolve_spec_tasks(spec)  # rejects params a scenario does not accept

    @property
    def cell_count(self) -> int:
        return len(self.attacks) * len(self.stacks) * len(self.seeds)


@dataclass(frozen=True)
class GridSweep:
    """One named scenario × parameter-grid sweep within a campaign."""

    name: str
    scenario: str
    base_params: Mapping[str, Any]
    grid: Mapping[str, list[Any]]
    seeds: tuple[int, ...]

    kind = "grid"

    def __post_init__(self) -> None:
        resolve_spec_tasks(self.experiment_spec())  # bad seeds, no cells, unknown params

    def experiment_spec(self) -> ExperimentSpec:
        return ExperimentSpec(scenario=self.scenario, seeds=self.seeds,
                              base_params=self.base_params, grid=self.grid)

    @property
    def cell_count(self) -> int:
        return math.prod(map(len, self.grid.values())) * len(self.seeds)


@dataclass(frozen=True)
class AnalysisSpec:
    """A derived, deterministic analysis over one sweep's results."""

    name: str
    kind: str
    sweep: str


@dataclass(frozen=True)
class FigureSpec:
    """A report figure rendered from one sweep's results."""

    name: str
    kind: str
    sweep: str
    x: str = ""
    y: str = ""
    title: str = ""


@dataclass(frozen=True)
class Step:
    """One stage of the campaign's fixed pipeline."""

    name: str
    kind: str  # "sweep" | "analysis" | "figure" | "report"
    payload: Optional[object] = None


def _spec(item: Any) -> dict[str, Any]:
    """A sweep, analysis or figure as its manifest entry: the ``kind`` and
    every field but ``name``, empty strings omitted, axes as field dicts."""
    spec: dict[str, Any] = {"kind": item.kind}
    for key, value in vars(item).items():
        if key == "name" or value == "":
            continue
        if isinstance(value, tuple) and value and is_dataclass(value[0]):
            value = [dict(vars(entry)) for entry in value]
        spec[key] = value
    return spec


@dataclass(frozen=True)
class CampaignManifest:
    """A validated campaign: named sweeps plus derived analyses and figures."""

    name: str
    sweeps: tuple[Any, ...]  # MatrixSweep | GridSweep, in manifest order
    analyses: tuple[AnalysisSpec, ...] = ()
    figures: tuple[FigureSpec, ...] = ()
    expected_digests: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [sweep.name for sweep in self.sweeps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate sweep names: {names}")

    # -- construction --------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> CampaignManifest:
        """Validate a plain dict/JSON manifest; raises ``ValueError`` early.

        Fail-fast matters here: a campaign may run for hours, so a typo'd
        scenario name or parameter, or a figure referencing a missing sweep,
        must die at compile time, not at step 7.  Nested values are copied,
        so later edits to *spec* cannot change the manifest.
        """
        if not isinstance(spec, Mapping):
            raise ValueError(f"a manifest must be a mapping, got {spec!r}")
        spec = copy.deepcopy(spec)
        unknown = set(spec) - {f.name for f in fields(cls)} - {"seeds"}
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        name = spec.get("name")
        if not name or not isinstance(name, str):
            raise ValueError("manifest needs a non-empty string 'name'")
        default_seeds = _resolve_seeds(spec.get("seeds"), (1, 2))
        sweep_entries = _entries(spec, "sweeps", "sweep")
        if not sweep_entries:
            raise ValueError("manifest needs a non-empty 'sweeps' mapping")

        sweeps: list[Any] = []
        for sweep_name, entry in sweep_entries:
            kind = entry.get("kind", "matrix")
            seeds = _resolve_seeds(entry.get("seeds"), default_seeds)
            if kind == "matrix":
                _require_keys(entry, MatrixSweep, f"sweep {sweep_name!r}")
                sweeps.append(MatrixSweep(
                    name=sweep_name,
                    attacks=_resolve_axis(entry.get("attacks", "default"),
                                          ATTACK_GROUPS, AttackSpec, _attack, "attack"),
                    stacks=_resolve_axis(entry.get("stacks", "default"),
                                         STACK_GROUPS, DefenseStackSpec, _stack, "stack"),
                    seeds=seeds))
            elif kind == "grid":
                _require_keys(entry, GridSweep, f"sweep {sweep_name!r}")
                scenario = entry.get("scenario")
                if not scenario:
                    raise ValueError(f"grid sweep {sweep_name!r} needs a 'scenario'")
                _require_scenario(scenario)
                base_params, grid = entry.get("base_params", {}), entry.get("grid", {})
                if not isinstance(base_params, Mapping):
                    raise ValueError(f"grid sweep {sweep_name!r}: 'base_params' "
                                     f"must be a mapping")
                if not isinstance(grid, Mapping) or any(
                        isinstance(values, str) or not isinstance(values, Sequence)
                        for values in grid.values()):
                    raise ValueError(f"grid sweep {sweep_name!r}: 'grid' must "
                                     f"map params to value lists")
                sweeps.append(GridSweep(
                    name=sweep_name, scenario=scenario,
                    base_params=dict(base_params),
                    # Key-sorted: the fingerprint hashes the spec with sorted
                    # keys, so the expansion order must not depend on theirs.
                    grid={key: list(grid[key]) for key in sorted(grid)},
                    seeds=seeds))
            else:
                raise ValueError(f"sweep {sweep_name!r}: unknown kind {kind!r} "
                                 f"(one of {SWEEP_KINDS})")
        by_name = {sweep.name: sweep for sweep in sweeps}

        analyses: list[AnalysisSpec] = []
        for analysis_name, entry in _entries(spec, "analyses", "analysis"):
            _require_keys(entry, AnalysisSpec, f"analysis {analysis_name!r}")
            kind = entry.get("kind")
            if kind not in ANALYSIS_KINDS:
                raise ValueError(f"analysis {analysis_name!r}: unknown kind "
                                 f"{kind!r} (one of {ANALYSIS_KINDS})")
            sweep = _require_sweep(by_name, entry.get("sweep"), analysis_name)
            if not isinstance(sweep, MatrixSweep):
                raise ValueError(f"analysis {analysis_name!r} needs a matrix "
                                 f"sweep, got {sweep.kind!r}")
            if kind == "section5":
                _validate_section5_cells(sweep, analysis_name)
            analyses.append(AnalysisSpec(name=analysis_name, kind=kind,
                                         sweep=sweep.name))

        figures: list[FigureSpec] = []
        for figure_name, entry in _entries(spec, "figures", "figure"):
            _require_keys(entry, FigureSpec, f"figure {figure_name!r}")
            kind = entry.get("kind")
            if kind not in FIGURE_KINDS:
                raise ValueError(f"figure {figure_name!r}: unknown kind "
                                 f"{kind!r} (one of {FIGURE_KINDS})")
            sweep = _require_sweep(by_name, entry.get("sweep"), figure_name)
            x = y = ""
            if kind == "heatmap":
                if not isinstance(sweep, MatrixSweep):
                    raise ValueError(f"figure {figure_name!r}: heatmaps need a "
                                     f"matrix sweep, got {sweep.kind!r}")
            else:  # curve
                if not isinstance(sweep, GridSweep):
                    raise ValueError(f"figure {figure_name!r}: curves need a "
                                     f"grid sweep, got {sweep.kind!r}")
                x, y = entry.get("x"), entry.get("y")
                if not (x and y and isinstance(x, str) and isinstance(y, str)):
                    raise ValueError(f"figure {figure_name!r}: curves need "
                                     f"'x' (a grid param) and 'y' (a metric)")
                if x not in sweep.grid:
                    raise ValueError(f"figure {figure_name!r}: x={x!r} is not "
                                     f"a grid param of sweep {sweep.name!r} "
                                     f"({sorted(sweep.grid)})")
            figures.append(FigureSpec(name=figure_name, kind=kind, sweep=sweep.name,
                                      x=x, y=y, title=str(entry.get("title", ""))))

        expected = spec.get("expected_digests", {})
        if not isinstance(expected, Mapping) or not all(
                isinstance(digest, str) for digest in expected.values()):
            raise ValueError("'expected_digests' must map step names to digests")
        return cls(name=name, sweeps=tuple(sweeps), analyses=tuple(analyses),
                   figures=tuple(figures), expected_digests=dict(expected))

    # -- canonical encoding --------------------------------------------------
    def to_spec(self) -> dict[str, Any]:
        """The canonical plain-dict form (round-trips via :meth:`from_spec`).

        Built shallowly, because every run fingerprints the manifest: nested
        values are the manifest's own, so copy them before editing.
        """
        spec: dict[str, Any] = {
            "name": self.name,
            "sweeps": {sweep.name: _spec(sweep) for sweep in self.sweeps},
        }
        if self.analyses:
            spec["analyses"] = {a.name: _spec(a) for a in self.analyses}
        if self.figures:
            spec["figures"] = {f.name: _spec(f) for f in self.figures}
        if self.expected_digests:
            spec["expected_digests"] = dict(self.expected_digests)
        return spec

    def fingerprint(self) -> str:
        """SHA-256 of the canonical spec — the checkpoint compatibility key.

        Any change to the study (a new stack, a grown seed budget, a
        reworded figure) moves the fingerprint; the state journal notices
        and recomputes affected steps through the cache instead of trusting
        stale checkpoints.  ``expected_digests`` is excluded: pinning an
        expectation must not invalidate the work it pins.
        """
        spec = self.to_spec()
        spec.pop("expected_digests", None)
        return hashlib.sha256(canonical_json(spec).encode()).hexdigest()

    # -- compilation ---------------------------------------------------------
    def sweep(self, name: str) -> Any:
        for sweep in self.sweeps:
            if sweep.name == name:
                return sweep
        raise KeyError(f"no sweep named {name!r}")

    def steps(self) -> list[Step]:
        """The fixed pipeline: sweeps, analyses, figures, then the report."""
        return ([Step(f"sweep:{sweep.name}", "sweep", sweep) for sweep in self.sweeps]
                + [Step(f"analysis:{analysis.name}", "analysis", analysis)
                   for analysis in self.analyses]
                + [Step(f"figure:{figure.name}", "figure", figure)
                   for figure in self.figures]
                + [Step(STEP_REPORT, STEP_REPORT)])

    @property
    def cell_count(self) -> int:
        return sum(sweep.cell_count for sweep in self.sweeps)


def _entries(spec: Mapping[str, Any], section: str, owner: str
             ) -> list[tuple[str, Mapping[str, Any]]]:
    """The ``(name, entry)`` pairs of one manifest section, all mappings."""
    entries = spec.get(section, {})
    if not isinstance(entries, Mapping):
        raise ValueError(f"{section!r} must map names to entries, got {entries!r}")
    for name, entry in entries.items():
        if not isinstance(entry, Mapping):
            raise ValueError(f"{owner} {name!r} must be a mapping, got {entry!r}")
    return [(str(name), entry) for name, entry in entries.items()]


def _require_keys(entry: Mapping[str, Any], cls: type, owner: str) -> None:
    """Reject keys that name no field of *cls* (``name`` is the entry's key)."""
    unknown = set(entry) - ({f.name for f in fields(cls)} - {"name"}) - {"kind"}
    if unknown:
        raise ValueError(f"{owner}: unknown keys {sorted(unknown)}")


def _require_sweep(by_name: Mapping[str, Any], ref: Any, owner: str) -> Any:
    if not isinstance(ref, str) or ref not in by_name:
        raise ValueError(f"{owner!r} references unknown sweep {ref!r}; "
                         f"known: {sorted(by_name)}")
    return by_name[ref]


def _validate_section5_cells(sweep: MatrixSweep, owner: str) -> None:
    """§V comparison needs specific rows/columns; fail at compile time."""
    attacks = {attack.label for attack in sweep.attacks}
    stacks = {stack.name for stack in sweep.stacks}
    for _, (attack, stack) in SECTION5_MATRIX_CELLS:
        if attack not in attacks or stack not in stacks:
            raise ValueError(
                f"analysis {owner!r}: section5 needs cell ({attack!r}, "
                f"{stack!r}); the sweep has attacks {sorted(attacks)} and "
                f"stacks {sorted(stacks)}")
