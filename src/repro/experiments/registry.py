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

#: ``dataclasses.field`` metadata marking a scenario config field as an
#: opt-in parameter: accepted, but absent from ``default_params()``.
OPT_IN = {"opt_in": True}


@runtime_checkable
class Scenario(Protocol):
    """The contract every registered scenario implements.

    ``run`` must be a pure function of ``(seed, params)`` returning a flat
    dict of picklable metrics (bools, numbers, strings, small lists) so that
    sweeps are reproducible and results can travel across process
    boundaries.  ``default_params`` and ``optional_params`` enumerate every
    accepted parameter; unknown keys are rejected by :func:`merge_params`.
    """

    name: str
    description: str

    def default_params(self) -> dict[str, Any]:
        ...

    def optional_params(self) -> tuple[str, ...]:
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
    So are the two misshapen values a sequence parameter invites: a single
    defense name for ``defenses`` (a string iterates as its characters) and
    a single fault event for ``faults`` (a dict iterates as its keys).

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
    if isinstance(params.get("defenses"), str):
        raise ValueError("defenses must be a sequence of defense names, "
                         f"not the string {params['defenses']!r}")
    if isinstance(params.get("faults"), Mapping):
        raise ValueError("faults must be a sequence of fault events, not a single event")
    merged = dict(defaults)
    merged.update(params)
    return merged
