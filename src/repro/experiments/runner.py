"""Declarative multi-seed sweeps over the scenario registry.

An :class:`ExperimentSpec` describes a sweep — one scenario, a set of seeds,
and either a cartesian parameter ``grid`` or an explicit list of
``param_sets`` — and :meth:`~repro.experiments.scheduler.SweepScheduler.
run_specs` runs any list of them::

    (result,), stats = SweepScheduler(workers=4).run_specs([spec])

Tasks are pure (scenario name, seed, resolved params) tuples, workers return
:class:`~repro.experiments.results.RunRecord` values, and the scheduler
reassembles them in submission order, so the result of a sweep is
byte-identical no matter how many workers executed it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Optional

from .registry import get_scenario, merge_params
from .results import RunRecord

#: A unit of work: (scenario name, seed, fully-resolved parameter dict).
Task = tuple[str, int, dict[str, Any]]


def run_scenario(name: str, seed: int,
                 params: Optional[Mapping[str, Any]] = None) -> dict[str, Any]:
    """Run one scenario once by registry name; every sweep task's building block.

    Also the recommended way for analysis code to drive a single packet-level
    run without constructing scenario objects by hand.
    """
    scenario = get_scenario(name)
    return scenario.run(seed, dict(params or {}))


def _execute_task(task: Task) -> RunRecord:
    """Module-level worker function so tasks pickle cleanly to subprocesses."""
    name, seed, params = task
    metrics = run_scenario(name, seed, params)
    return RunRecord(scenario=name, seed=seed, params=params, metrics=metrics)


def require_valid_seeds(seeds: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``seeds`` are distinct non-bool ints."""
    if not seeds:
        raise ValueError("a seed list must not be empty")
    if (any(isinstance(seed, bool) or not isinstance(seed, int) for seed in seeds)
            or len(set(seeds)) != len(seeds)):
        raise ValueError(f"seeds must be distinct ints: {list(seeds)!r}")


def resolve_spec_tasks(spec: ExperimentSpec) -> list[Task]:
    """A spec's fully-resolved task list: defaults merged, unknown keys rejected.

    Resolving up-front (rather than in the worker) means every
    :class:`RunRecord` carries the complete effective configuration and a bad
    parameter name fails fast, before any subprocess is spawned.
    """
    scenario = get_scenario(spec.scenario)
    defaults = scenario.default_params()
    optional = scenario.optional_params()
    return [(name, seed, merge_params(defaults, params, optional))
            for name, seed, params in spec.tasks()]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one sweep.

    ``grid`` expands to the cartesian product of its value lists (key order
    preserved); ``param_sets`` is an explicit list of overlays for
    heterogeneous sweeps (e.g. the mitigation table).  The two are mutually
    exclusive.  Every parameter set runs once per seed, seeds innermost.
    """

    scenario: str
    seeds: tuple[int, ...] = (1,)
    base_params: Mapping[str, Any] = field(default_factory=dict)
    grid: Optional[Mapping[str, Sequence[Any]]] = None
    param_sets: Optional[tuple[Mapping[str, Any], ...]] = None

    def __post_init__(self) -> None:
        require_valid_seeds(self.seeds)
        if self.grid is not None and self.param_sets is not None:
            raise ValueError("grid and param_sets are mutually exclusive")
        if not self.parameter_sets():
            raise ValueError("the sweep expands to zero parameter sets")

    def parameter_sets(self) -> list[dict[str, Any]]:
        """The ordered parameter overlays this spec expands to."""
        base = dict(self.base_params)
        if self.param_sets is not None:
            return [{**base, **overlay} for overlay in self.param_sets]
        if not self.grid:
            return [base]
        keys = list(self.grid)
        return [{**base, **dict(zip(keys, values))}
                for values in product(*(self.grid[key] for key in keys))]

    def tasks(self) -> list[Task]:
        return [(self.scenario, seed, params)
                for params in self.parameter_sets()
                for seed in self.seeds]
