"""Scenario registry: every attack scenario is runnable by name with a dict.

The registry decouples *what* an experiment runs from *how* it is swept:
:meth:`repro.experiments.scheduler.SweepScheduler.run_specs` only ever sees
a scenario name, a seed and a parameter dict, all of which are picklable and travel to
multiprocessing workers by value.  The built-in scenarios (the five attack
scenarios plus the measurement scenarios) live in
:mod:`repro.experiments.scenarios` and :mod:`repro.population.scenario` and
are loaded lazily on first lookup, which keeps this module free of imports from
the attacks layer and thereby breaks the ``attacks -> experiments.testbed``
/ ``experiments -> attacks`` cycle.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Protocol, runtime_checkable

from ..lazy_registry import LazyRegistry


@runtime_checkable
class Scenario(Protocol):
    """The contract every registered scenario implements.

    ``run`` must be a pure function of ``(seed, params)`` returning a flat
    dict of picklable metrics (bools, numbers, strings, small lists) so that
    sweeps are reproducible and results can travel across process
    boundaries.  ``default_params`` enumerates every accepted parameter;
    unknown keys are rejected by :func:`merge_params`.
    """

    name: str
    description: str

    def default_params(self) -> dict[str, Any]:
        ...

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        ...


_REGISTRY = LazyRegistry("scenario", ("repro.experiments.scenarios",
                                      "repro.population.scenario"))


def register_scenario(scenario: Any) -> Any:
    """Register a scenario (class decorator or direct call with an instance).

    When used on a class the class is instantiated once; the registry holds
    singletons because scenarios are stateless adapters.
    """
    instance = scenario() if isinstance(scenario, type) else scenario
    _REGISTRY.register(instance.name, instance)
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by its registry name."""
    return _REGISTRY.lookup(name)


def available_scenarios() -> dict[str, str]:
    """Mapping of every registered scenario name to its description."""
    _REGISTRY.load()
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}


def merge_params(defaults: Mapping[str, Any], params: Mapping[str, Any],
                 optional: Sequence[str] = ()) -> dict[str, Any]:
    """Overlay ``params`` on ``defaults``, rejecting unknown keys.

    Scenario configs are flat dicts; a typo'd key silently falling through
    would make a sweep measure the wrong thing, so unknown keys are errors.

    ``optional`` names extra accepted keys that have *no* default: they
    appear in the merged dict only when explicitly supplied.  This is how a
    scenario grows a new opt-in knob (``faults``) without perturbing the
    resolved parameter dict — and therefore the pinned digests and cache
    keys — of every sweep that never uses it.
    """
    accepted = set(defaults) | set(optional)
    unknown = set(params) - accepted
    if unknown:
        raise ValueError(f"unknown scenario parameter(s): {', '.join(sorted(unknown))}; "
                         f"accepted: {', '.join(sorted(accepted))}")
    merged = dict(defaults)
    merged.update(params)
    return merged


def optional_params(scenario: Scenario) -> tuple[str, ...]:
    """The scenario's declared opt-in parameter names (``()`` by default).

    Declared via an ``optional_params()`` method on the scenario; optional
    precisely so that existing third-party scenarios keep working unchanged.
    """
    declare = getattr(scenario, "optional_params", None)
    return tuple(declare()) if declare is not None else ()
