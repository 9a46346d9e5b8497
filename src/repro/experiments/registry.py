"""Scenario registry: every attack scenario is runnable by name with a dict.

The registry decouples *what* an experiment runs from *how* it is swept:
:class:`repro.experiments.runner.ExperimentRunner` only ever sees a scenario
name, a seed and a parameter dict, all of which are picklable and travel to
multiprocessing workers by value.  The built-in scenarios (the five attack
scenarios plus the measurement scenarios) live in
:mod:`repro.experiments.scenarios` and :mod:`repro.population.scenario` and
are loaded lazily on first lookup, which keeps this module free of imports from
the attacks layer and thereby breaks the ``attacks -> experiments.testbed``
/ ``experiments -> attacks`` cycle.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Mapping, Sequence
from typing import Any, Protocol, runtime_checkable


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


_REGISTRY: dict[str, Scenario] = {}

#: Modules imported on first lookup; importing them registers the builtins.
_BUILTIN_MODULES = ("repro.experiments.scenarios", "repro.population.scenario")
_builtins_loaded = False


def register_scenario(scenario: Any) -> Any:
    """Register a scenario (class decorator or direct call with an instance).

    When used on a class the class is instantiated once; the registry holds
    singletons because scenarios are stateless adapters.
    """
    instance = scenario() if isinstance(scenario, type) else scenario
    name = instance.name
    if name in _REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered")
    _REGISTRY[name] = instance
    return scenario


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    # A failed import must surface again on the next lookup: the loaded flag
    # is only set after every import succeeded, and partial registrations are
    # unwound so the retried module re-executes without duplicate-name errors.
    snapshot = dict(_REGISTRY)
    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
    except BaseException:
        _REGISTRY.clear()
        _REGISTRY.update(snapshot)
        for module in _BUILTIN_MODULES:
            sys.modules.pop(module, None)
        raise
    _builtins_loaded = True


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by its registry name."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; available: "
                       f"{', '.join(sorted(_REGISTRY))}") from None


def available_scenarios() -> dict[str, str]:
    """Mapping of every registered scenario name to its description."""
    _load_builtins()
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
