"""Declarative campaign manifests compiled into dependency-ordered steps.

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
pinned grids or define brand-new ones.  :meth:`CampaignManifest.steps`
compiles the manifest into a topologically-ordered step list (sweeps,
then the analyses/figures that consume them, then the report), and
:meth:`CampaignManifest.fingerprint` hashes the canonical spec — the
checkpoint journal stores it, so a drifted manifest is detected instead
of silently resuming the wrong study.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Optional

from ..analysis.mitigations import SECTION5_MATRIX_CELLS
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
    require_unique_axes,
)
from ..experiments.registry import get_scenario
from ..experiments.runner import ExperimentSpec, require_valid_seeds

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


def _freeze(value: Any) -> Any:
    """Recursively hashable form of a JSON-ish value (dicts -> item tuples)."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for the dict/list shapes it produces."""
    if isinstance(value, tuple):
        if all(isinstance(item, tuple) and len(item) == 2
               and isinstance(item[0], str) for item in value):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


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


def _resolve_attacks(spec: Any) -> tuple[AttackSpec, ...]:
    """Attack rows from a group name, inline dicts, or a mixed list."""
    if isinstance(spec, str):
        try:
            return ATTACK_GROUPS[spec]
        except KeyError:
            raise ValueError(f"unknown attack group {spec!r}; known: "
                             f"{sorted(ATTACK_GROUPS)}") from None
    if isinstance(spec, Mapping):
        spec = [spec]
    if not isinstance(spec, Sequence):
        raise ValueError(f"unsupported attacks spec: {spec!r}")
    attacks: list[AttackSpec] = []
    for entry in spec:
        if isinstance(entry, str):
            attacks.extend(_resolve_attacks(entry))
        elif isinstance(entry, AttackSpec):
            attacks.append(entry)
        elif isinstance(entry, Mapping):
            unknown = set(entry) - {"label", "scenario", "params"}
            if unknown:
                raise ValueError(f"unknown attack keys: {sorted(unknown)}")
            scenario = entry.get("scenario")
            if not scenario:
                raise ValueError(f"attack entry needs a 'scenario': {entry!r}")
            _require_scenario(scenario)
            attacks.append(AttackSpec(
                label=str(entry.get("label", scenario)),
                scenario=str(scenario),
                params=dict(entry.get("params", {}))))
        else:
            raise ValueError(f"unsupported attack entry: {entry!r}")
    return tuple(attacks)


def _resolve_stacks(spec: Any) -> tuple[DefenseStackSpec, ...]:
    """Defense columns from a group name, inline dicts, or a mixed list."""
    if isinstance(spec, str):
        try:
            return STACK_GROUPS[spec]
        except KeyError:
            raise ValueError(f"unknown stack group {spec!r}; known: "
                             f"{sorted(STACK_GROUPS)}") from None
    if isinstance(spec, Mapping):
        spec = [spec]
    if not isinstance(spec, Sequence):
        raise ValueError(f"unsupported stacks spec: {spec!r}")
    stacks: list[DefenseStackSpec] = []
    for entry in spec:
        if isinstance(entry, str):
            stacks.extend(_resolve_stacks(entry))
        elif isinstance(entry, DefenseStackSpec):
            stacks.append(entry)
        elif isinstance(entry, Mapping):
            unknown = set(entry) - {"name", "defenses", "description"}
            if unknown:
                raise ValueError(f"unknown stack keys: {sorted(unknown)}")
            if "name" not in entry:
                raise ValueError(f"stack entry needs a 'name': {entry!r}")
            stacks.append(DefenseStackSpec(
                name=str(entry["name"]),
                defenses=tuple(entry.get("defenses", ())),
                description=str(entry.get("description", ""))))
        else:
            raise ValueError(f"unsupported stack entry: {entry!r}")
    return tuple(stacks)


def _require_scenario(name: str) -> None:
    try:
        get_scenario(name)
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}") from None


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

    @property
    def cell_count(self) -> int:
        return len(self.attacks) * len(self.stacks) * len(self.seeds)

    def to_spec(self) -> dict[str, Any]:
        return {
            "kind": "matrix",
            "attacks": [{"label": a.label, "scenario": a.scenario,
                         "params": dict(a.params)} for a in self.attacks],
            "stacks": [{"name": s.name, "defenses": list(s.defenses),
                        "description": s.description} for s in self.stacks],
            "seeds": list(self.seeds),
        }


@dataclass(frozen=True)
class GridSweep:
    """One named scenario × parameter-grid sweep within a campaign."""

    name: str
    scenario: str
    base_params: Any  # frozen mapping (see _freeze)
    grid: Any  # frozen mapping of param -> value list
    seeds: tuple[int, ...]

    kind = "grid"

    def __post_init__(self) -> None:
        self.experiment_spec()  # rejects bad seeds and an empty expansion

    def experiment_spec(self) -> ExperimentSpec:
        return ExperimentSpec(scenario=self.scenario, seeds=self.seeds,
                              base_params=self.base_params_dict, grid=self.grid_dict)

    @property
    def base_params_dict(self) -> dict[str, Any]:
        return _thaw(self.base_params) if self.base_params else {}

    @property
    def grid_dict(self) -> dict[str, list[Any]]:
        return _thaw(self.grid) if self.grid else {}

    @property
    def cell_count(self) -> int:
        points = 1
        for values in self.grid_dict.values():
            points *= len(values)
        return points * len(self.seeds)

    def to_spec(self) -> dict[str, Any]:
        return {
            "kind": "grid",
            "scenario": self.scenario,
            "base_params": self.base_params_dict,
            "grid": self.grid_dict,
            "seeds": list(self.seeds),
        }


@dataclass(frozen=True)
class AnalysisSpec:
    """A derived, deterministic analysis over one sweep's results."""

    name: str
    kind: str
    sweep: str

    def to_spec(self) -> dict[str, Any]:
        return {"kind": self.kind, "sweep": self.sweep}


@dataclass(frozen=True)
class FigureSpec:
    """A report figure rendered from one sweep's results."""

    name: str
    kind: str
    sweep: str
    x: str = ""
    y: str = ""
    title: str = ""

    def to_spec(self) -> dict[str, Any]:
        spec: dict[str, Any] = {"kind": self.kind, "sweep": self.sweep}
        if self.x:
            spec["x"] = self.x
        if self.y:
            spec["y"] = self.y
        if self.title:
            spec["title"] = self.title
        return spec


@dataclass(frozen=True)
class Step:
    """One node of the campaign's dependency-ordered execution graph."""

    name: str
    kind: str  # "sweep" | "analysis" | "figure" | "report"
    depends: tuple[str, ...]
    payload: Optional[object] = None


def dependency_order(steps: Sequence[Step]) -> list[Step]:
    """Kahn's topological sort, stable on the given order; cycles raise.

    The compiler only emits backward edges, so this is a validation pass —
    but hand-built step lists (tests, future extensions) go through the
    same gate.
    """
    by_name = {step.name: step for step in steps}
    missing = {dep for step in steps for dep in step.depends} - set(by_name)
    if missing:
        raise ValueError(f"steps depend on unknown steps: {sorted(missing)}")
    remaining = {step.name: set(step.depends) for step in steps}
    ordered: list[Step] = []
    while remaining:
        ready = [name for name, deps in remaining.items() if not deps]
        if not ready:
            raise ValueError(f"dependency cycle among: {sorted(remaining)}")
        for name in ready:
            ordered.append(by_name[name])
            del remaining[name]
        for deps in remaining.values():
            deps.difference_update(ready)
    return ordered


@dataclass(frozen=True)
class CampaignManifest:
    """A validated campaign: named sweeps plus derived analyses and figures."""

    name: str
    sweeps: tuple[Any, ...]  # MatrixSweep | GridSweep, in manifest order
    analyses: tuple[AnalysisSpec, ...] = ()
    figures: tuple[FigureSpec, ...] = ()
    expected_digests: Any = ()  # frozen mapping of step name -> digest

    def __post_init__(self) -> None:
        names = [sweep.name for sweep in self.sweeps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate sweep names: {names}")

    # -- construction --------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> CampaignManifest:
        """Validate a plain dict/JSON manifest; raises ``ValueError`` early.

        Fail-fast matters here: a campaign may run for hours, so a typo'd
        scenario name or a figure referencing a missing sweep must die at
        compile time, not at step 7.
        """
        unknown = set(spec) - {"name", "seeds", "sweeps", "analyses",
                               "figures", "expected_digests"}
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        name = spec.get("name")
        if not name or not isinstance(name, str):
            raise ValueError("manifest needs a non-empty string 'name'")
        default_seeds = _resolve_seeds(spec.get("seeds"), (1, 2))
        sweeps_spec = spec.get("sweeps")
        if not isinstance(sweeps_spec, Mapping) or not sweeps_spec:
            raise ValueError("manifest needs a non-empty 'sweeps' mapping")

        sweeps: list[Any] = []
        for sweep_name, entry in sweeps_spec.items():
            kind = entry.get("kind", "matrix")
            seeds = _resolve_seeds(entry.get("seeds"), default_seeds)
            if kind == "matrix":
                unknown = set(entry) - {"kind", "attacks", "stacks", "seeds"}
                if unknown:
                    raise ValueError(f"sweep {sweep_name!r}: unknown keys "
                                     f"{sorted(unknown)}")
                sweeps.append(MatrixSweep(
                    name=str(sweep_name),
                    attacks=_resolve_attacks(entry.get("attacks", "default")),
                    stacks=_resolve_stacks(entry.get("stacks", "default")),
                    seeds=seeds))
            elif kind == "grid":
                unknown = set(entry) - {"kind", "scenario", "base_params",
                                        "grid", "seeds"}
                if unknown:
                    raise ValueError(f"sweep {sweep_name!r}: unknown keys "
                                     f"{sorted(unknown)}")
                scenario = entry.get("scenario")
                if not scenario:
                    raise ValueError(f"grid sweep {sweep_name!r} needs a 'scenario'")
                _require_scenario(scenario)
                grid = entry.get("grid", {})
                if not isinstance(grid, Mapping):
                    raise ValueError(f"grid sweep {sweep_name!r}: 'grid' must "
                                     f"map params to value lists")
                sweeps.append(GridSweep(
                    name=str(sweep_name),
                    scenario=str(scenario),
                    base_params=_freeze(dict(entry.get("base_params", {}))),
                    grid=_freeze({k: list(v) for k, v in grid.items()}),
                    seeds=seeds))
            else:
                raise ValueError(f"sweep {sweep_name!r}: unknown kind {kind!r} "
                                 f"(one of {SWEEP_KINDS})")
        by_name = {sweep.name: sweep for sweep in sweeps}

        analyses: list[AnalysisSpec] = []
        for analysis_name, entry in (spec.get("analyses") or {}).items():
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
            analyses.append(AnalysisSpec(name=str(analysis_name), kind=kind,
                                         sweep=sweep.name))

        figures: list[FigureSpec] = []
        for figure_name, entry in (spec.get("figures") or {}).items():
            kind = entry.get("kind")
            if kind not in FIGURE_KINDS:
                raise ValueError(f"figure {figure_name!r}: unknown kind "
                                 f"{kind!r} (one of {FIGURE_KINDS})")
            sweep = _require_sweep(by_name, entry.get("sweep"), figure_name)
            if kind == "heatmap":
                if not isinstance(sweep, MatrixSweep):
                    raise ValueError(f"figure {figure_name!r}: heatmaps need a "
                                     f"matrix sweep, got {sweep.kind!r}")
                figures.append(FigureSpec(name=str(figure_name), kind=kind,
                                          sweep=sweep.name,
                                          title=str(entry.get("title", ""))))
            else:  # curve
                if not isinstance(sweep, GridSweep):
                    raise ValueError(f"figure {figure_name!r}: curves need a "
                                     f"grid sweep, got {sweep.kind!r}")
                x, y = entry.get("x"), entry.get("y")
                if not x or not y:
                    raise ValueError(f"figure {figure_name!r}: curves need "
                                     f"'x' (a grid param) and 'y' (a metric)")
                if x not in sweep.grid_dict:
                    raise ValueError(f"figure {figure_name!r}: x={x!r} is not "
                                     f"a grid param of sweep {sweep.name!r} "
                                     f"({sorted(sweep.grid_dict)})")
                figures.append(FigureSpec(name=str(figure_name), kind=kind,
                                          sweep=sweep.name, x=str(x), y=str(y),
                                          title=str(entry.get("title", ""))))

        expected = spec.get("expected_digests") or {}
        if not isinstance(expected, Mapping):
            raise ValueError("'expected_digests' must map step names to digests")
        return cls(name=name, sweeps=tuple(sweeps), analyses=tuple(analyses),
                   figures=tuple(figures),
                   expected_digests=_freeze(dict(expected)))

    # -- canonical encoding --------------------------------------------------
    def to_spec(self) -> dict[str, Any]:
        """The canonical plain-dict form (round-trips via :meth:`from_spec`)."""
        spec: dict[str, Any] = {
            "name": self.name,
            "sweeps": {sweep.name: sweep.to_spec() for sweep in self.sweeps},
        }
        if self.analyses:
            spec["analyses"] = {a.name: a.to_spec() for a in self.analyses}
        if self.figures:
            spec["figures"] = {f.name: f.to_spec() for f in self.figures}
        expected = _thaw(self.expected_digests) if self.expected_digests else {}
        if expected:
            spec["expected_digests"] = expected
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
        """The dependency-ordered execution plan, report last."""
        steps = [Step(name=f"sweep:{sweep.name}", kind="sweep", depends=(),
                      payload=sweep)
                 for sweep in self.sweeps]
        steps += [Step(name=f"analysis:{analysis.name}", kind="analysis",
                       depends=(f"sweep:{analysis.sweep}",), payload=analysis)
                  for analysis in self.analyses]
        steps += [Step(name=f"figure:{figure.name}", kind="figure",
                       depends=(f"sweep:{figure.sweep}",), payload=figure)
                  for figure in self.figures]
        steps.append(Step(name=STEP_REPORT, kind=STEP_REPORT,
                          depends=tuple(step.name for step in steps)))
        return dependency_order(steps)

    def expected_digest(self, step_name: str) -> Optional[str]:
        for key, value in (self.expected_digests or ()):
            if key == step_name:
                return value
        return None

    @property
    def cell_count(self) -> int:
        return sum(sweep.cell_count for sweep in self.sweeps)


def _require_sweep(by_name: Mapping[str, Any], ref: Any, owner: str) -> Any:
    if not ref or ref not in by_name:
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
