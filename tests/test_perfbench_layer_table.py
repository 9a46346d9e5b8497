"""Every entry point in perfbench's layer table exists where it is named.

The traced perfbench run patches each ``module:Class.attr`` target through
``Class.__dict__[attr]``, so a method that a class merely inherits (or a
renamed one) makes the traced run die with ``KeyError``.  This reads the
table as text, without importing or changing ``perfbench/``.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
TARGETS = sorted(set(re.findall(r'"(repro(?:\.\w+)+):([\w.]+)"', LAYERS.read_text())))


def test_the_layer_table_was_found():
    assert len(TARGETS) > 50


@pytest.mark.parametrize(("module_name", "path"), TARGETS,
                         ids=[f"{module}:{path}" for module, path in TARGETS])
def test_layer_table_target_is_defined_in_its_owner(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        assert callable(getattr(module, path, None)), f"{module_name} has no {path}"
        return
    owner = getattr(module, owner_name)
    assert attr in owner.__dict__, (
        f"{owner_name}.{attr} is not defined in the class body of {owner_name}")
