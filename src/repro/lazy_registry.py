"""The name registry behind the scenario and defense registries.

Each registry is filled by importing its built-in modules on the first
lookup, not at import time, which would close import cycles.  This module
imports nothing from ``repro`` so that either registry can use it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any


class LazyRegistry(dict):
    """``name -> entry``; importing the *builtins* modules registers theirs."""

    def __init__(self, kind: str, builtins: tuple[str, ...]) -> None:
        super().__init__()
        self.kind = kind
        self.builtins = builtins
        self.loaded = False

    def register(self, name: str, entry: Any) -> None:
        if name in self:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self[name] = entry

    def load(self) -> None:
        """Import the built-in modules once.

        A failed import restores the entries and evicts the modules this
        attempt imported, so the next lookup retries without tripping the
        duplicate-name check; modules imported earlier are never re-run.
        """
        if self.loaded:
            return
        snapshot = dict(self)
        imported_before = {module for module in self.builtins if module in sys.modules}
        try:
            for module in self.builtins:
                importlib.import_module(module)
        except BaseException:
            self.clear()
            self.update(snapshot)
            for module in self.builtins:
                if module not in imported_before:
                    sys.modules.pop(module, None)
            raise
        self.loaded = True

    def lookup(self, name: str) -> Any:
        self.load()
        try:
            return self[name]
        except KeyError:
            raise KeyError(f"unknown {self.kind} {name!r}; available: "
                           f"{', '.join(sorted(self))}") from None
