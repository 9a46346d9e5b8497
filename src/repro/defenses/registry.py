"""Defense registry: every countermeasure is buildable by name.

Experiment configs carry defenses as plain name tuples (picklable, hashable,
JSON-encodable), and the testbed builder materialises fresh instances per
run via :func:`build_defense` — defenses hold per-run state (cookie salts,
zone profiles, signing keys), so a name never shares an instance across
runs.  The built-in modules are imported lazily on first lookup, through the
same :class:`~repro.lazy_registry.LazyRegistry` as the scenario registry, so
this module stays import-cycle-free.
"""

from __future__ import annotations

from collections.abc import Callable

from ..lazy_registry import LazyRegistry
from .base import Defense

DefenseFactory = Callable[[], Defense]

_REGISTRY = LazyRegistry("defense", (
    "repro.defenses.classic",
    "repro.defenses.hardening",
    "repro.defenses.pool",
    "repro.defenses.resilience",
    "repro.defenses.rrl",
    "repro.defenses.transport",
))


def register_defense(factory: DefenseFactory) -> DefenseFactory:
    """Register a defense class (or zero-argument factory) under its name.

    Unlike scenarios, defenses are registered as *factories*: every lookup
    constructs a fresh instance.  Every defense is one fixed rule built by
    name; only the ``encrypted_transport*`` policies take knobs, and a
    configured one is passed to a stack as an instance instead.  An instance
    in a spec is shared by every run built from that spec, so it must hold
    no per-run state.
    """
    name = getattr(factory, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"defense factory {factory!r} needs a class-level name")
    _REGISTRY.register(name, factory)
    return factory


def build_defense(name: str) -> Defense:
    """Construct a fresh instance of the named defense."""
    return _REGISTRY.lookup(name)()


def available_defenses() -> dict[str, str]:
    """Mapping of every registered defense name to its docstring headline."""
    _REGISTRY.load()
    return {name: (factory.__doc__ or "").strip().splitlines()[0]
            for name, factory in sorted(_REGISTRY.items())}
