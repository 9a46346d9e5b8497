"""Campaign manifests are plain data: pinned fingerprints, copy-on-compile,
total validation, and a differential check against the hashable codec the
compiled manifest used to keep its grids in."""

from __future__ import annotations

import copy
import importlib.util
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_campaign import TINY_SPEC

from repro.campaign import CampaignManifest
from repro.experiments.cache import canonical_json
from repro.experiments.registry import get_scenario

_STUDY = Path(__file__).resolve().parent.parent / "examples" / "campaign_study.py"
_spec = importlib.util.spec_from_file_location("campaign_study", _STUDY)
campaign_study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(campaign_study)

#: Two pairs of defenses as grid values: the shape the hashable codec
#: decoded as a dict.
STACK_PAIRS = [["random_txid", "response_matching"],
               ["fragment_rejection", "random_source_port"]]


def test_fingerprints_are_pinned():
    assert CampaignManifest.from_spec(TINY_SPEC).fingerprint() == (
        "51635a770e37426dcd00cfacd8458b743dbd80d4ea307689796f0ea4c20249d0")
    assert CampaignManifest.from_spec(campaign_study.reduced_manifest(2)).fingerprint() == (
        "eec7acf8803d94ce718300c8a97bb1135e90fdc9cba4c519be9454c7ca97c19c")


def test_grid_values_that_are_lists_of_pairs_stay_lists():
    manifest = CampaignManifest.from_spec({"name": "probe", "sweeps": {"g": {
        "kind": "grid", "scenario": "bgp_hijack",
        "grid": {"defenses": STACK_PAIRS}, "seeds": [1]}}})
    sweep = manifest.sweep("g")
    assert sweep.grid == {"defenses": STACK_PAIRS}
    assert sweep.experiment_spec().parameter_sets() == [
        {"defenses": pair} for pair in STACK_PAIRS]
    assert sweep.cell_count == 2
    assert manifest.to_spec()["sweeps"]["g"]["grid"] == {"defenses": STACK_PAIRS}


def test_editing_the_spec_after_compiling_moves_nothing():
    spec = copy.deepcopy(TINY_SPEC)
    spec["sweeps"]["pairs"] = {"kind": "grid", "scenario": "bgp_hijack",
                               "grid": {"defenses": copy.deepcopy(STACK_PAIRS)}}
    manifest = CampaignManifest.from_spec(spec)
    before = canonical_json(manifest.to_spec())
    spec["sweeps"]["grid"]["attacks"][0]["params"]["benign_server_count"] = 5
    spec["sweeps"]["grid"]["stacks"][1]["defenses"].append("dns_0x20")
    spec["sweeps"]["overhead"]["base_params"]["queries"] = 9
    spec["sweeps"]["overhead"]["grid"]["transport"].append("doh")
    spec["sweeps"]["pairs"]["grid"]["defenses"][0].append("dns_0x20")
    spec["figures"]["heatmap"]["title"] = "edited"
    assert canonical_json(manifest.to_spec()) == before
    assert manifest.fingerprint() == CampaignManifest.from_spec(
        TINY_SPEC | {"sweeps": {**TINY_SPEC["sweeps"], "pairs": {
            "kind": "grid", "scenario": "bgp_hijack",
            "grid": {"defenses": STACK_PAIRS}}}}).fingerprint()


@pytest.mark.parametrize("base_params", [
    {"defenses": "dns_0x20"},
    {"faults": {"kind": "host_outage", "start": 0.0, "end": 9e9, "host": "@nameserver"}},
])
def test_a_bare_defense_name_or_fault_event_fails_to_compile(base_params):
    with pytest.raises(ValueError, match="must be a sequence"):
        CampaignManifest.from_spec({"name": "probe", "sweeps": {"g": {
            "kind": "grid", "scenario": "bgp_hijack", "base_params": base_params,
            "grid": {"hijack_duration": [0.0, 30.0]}, "seeds": [1]}}})


# -- any JSON anywhere: compiles or raises ValueError ------------------------
#: Integers stay small because a seed budget n is a valid request for n
#: seeds; the strings include every name a manifest may use.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from([
        "matrix", "grid", "heatmap", "curve", "section5", "success_summary",
        "default", "legacy", "overhead", "transport", "udp", "frag_poisoning",
        "transport_overhead", "fragment_rejection", "mean_time_to_answer"]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)


def _paths(value: Any, path: tuple = ()) -> list[tuple]:
    """Every place in *value*, plus one new key in each mapping."""
    paths = [path]
    if isinstance(value, Mapping):
        paths.append(path + ("new_key",))
        for key, child in value.items():
            paths += _paths(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            paths += _paths(child, path + (index,))
    return paths


def _replaced(spec: Any, path: tuple, value: Any) -> Any:
    if not path:
        return value
    spec = copy.deepcopy(spec)
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return spec


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(_paths(TINY_SPEC)), value=_JSON)
def test_any_json_anywhere_compiles_or_raises_value_error(path, value):
    try:
        manifest = CampaignManifest.from_spec(_replaced(TINY_SPEC, path, value))
    except ValueError:
        return
    again = CampaignManifest.from_spec(manifest.to_spec())
    assert again.fingerprint() == manifest.fingerprint()


# -- differential: the spec encoding the hashable codec produced -------------
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


def _roundtrips(value: Any) -> bool:
    return _thaw(_freeze(value)) == value


def reference_to_spec(manifest: CampaignManifest) -> dict[str, Any]:
    """The per-class ``to_spec`` methods over frozen grid mappings."""
    def sweep_spec(sweep: Any) -> dict[str, Any]:
        if sweep.kind == "matrix":
            return {
                "kind": "matrix",
                "attacks": [{"label": a.label, "scenario": a.scenario,
                             "params": dict(a.params)} for a in sweep.attacks],
                "stacks": [{"name": s.name, "defenses": list(s.defenses),
                            "description": s.description} for s in sweep.stacks],
                "seeds": list(sweep.seeds),
            }
        base_params = _freeze(dict(sweep.base_params))
        grid = _freeze({k: list(v) for k, v in sweep.grid.items()})
        return {
            "kind": "grid",
            "scenario": sweep.scenario,
            "base_params": _thaw(base_params) if base_params else {},
            "grid": _thaw(grid) if grid else {},
            "seeds": list(sweep.seeds),
        }

    def figure_spec(figure: Any) -> dict[str, Any]:
        spec: dict[str, Any] = {"kind": figure.kind, "sweep": figure.sweep}
        if figure.x:
            spec["x"] = figure.x
        if figure.y:
            spec["y"] = figure.y
        if figure.title:
            spec["title"] = figure.title
        return spec

    spec: dict[str, Any] = {
        "name": manifest.name,
        "sweeps": {sweep.name: sweep_spec(sweep) for sweep in manifest.sweeps},
    }
    if manifest.analyses:
        spec["analyses"] = {a.name: {"kind": a.kind, "sweep": a.sweep}
                            for a in manifest.analyses}
    if manifest.figures:
        spec["figures"] = {f.name: figure_spec(f) for f in manifest.figures}
    expected = _freeze(dict(manifest.expected_digests))
    expected = _thaw(expected) if expected else {}
    if expected:
        spec["expected_digests"] = expected
    return spec


_NAMES = st.text("abcxyz_", min_size=1, max_size=5)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda children: (st.lists(children, min_size=1, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6)
_SEEDS = st.none() | st.integers(1, 3) | st.lists(st.integers(0, 20), min_size=1,
                                                  max_size=3, unique=True)
_DEFENSES = ["fragment_rejection", "dns_0x20", "random_txid", "address_cap",
             "ttl_discard", "response_matching"]


def _params(draw: Any, scenario: str, values: Any = _VALUES) -> dict[str, Any]:
    keys = sorted(set(get_scenario(scenario).default_params()) - {"defenses"})
    return draw(st.dictionaries(st.sampled_from(keys), values, max_size=3))


@st.composite
def valid_manifests(draw: Any) -> dict[str, Any]:
    sweeps: dict[str, Any] = {}
    for name in draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True)):
        entry: dict[str, Any] = {"seeds": draw(_SEEDS)}
        if draw(st.booleans()):
            entry["kind"] = "matrix"
            entry["attacks"] = draw(st.sampled_from(["legacy", "default"])) if draw(
                st.booleans()) else [
                {"label": label,
                 "scenario": (scenario := draw(st.sampled_from(
                     ["frag_poisoning", "bgp_hijack", "chronos_pool_attack"]))),
                 "params": _params(draw, scenario)}
                for label in draw(st.lists(_NAMES, min_size=1, max_size=2, unique=True))]
            entry["stacks"] = draw(st.sampled_from(["legacy", "default"])) if draw(
                st.booleans()) else [
                {"name": stack, "defenses": draw(st.lists(st.sampled_from(_DEFENSES),
                                                         max_size=2)),
                 "description": draw(st.text(max_size=4))}
                for stack in draw(st.lists(_NAMES, min_size=1, max_size=2, unique=True))]
        else:
            entry["kind"] = "grid"
            entry["scenario"] = "transport_overhead"
            entry["base_params"] = _params(draw, "transport_overhead")
            entry["grid"] = _params(draw, "transport_overhead",
                                    st.lists(_VALUES, min_size=1, max_size=3))
            assume(_roundtrips(entry["base_params"]) and _roundtrips(entry["grid"]))
        sweeps[name] = {key: value for key, value in entry.items() if value is not None}
    matrices = [name for name, entry in sweeps.items() if entry["kind"] == "matrix"]
    grids = {name: entry["grid"] for name, entry in sweeps.items()
             if entry["kind"] == "grid" and entry["grid"]}
    spec: dict[str, Any] = {"name": draw(_NAMES), "sweeps": sweeps,
                            "seeds": draw(_SEEDS)}
    if matrices:
        spec["analyses"] = {f"a_{name}": {"kind": "success_summary", "sweep": name}
                            for name in draw(st.lists(st.sampled_from(matrices),
                                                      unique=True))}
        spec["figures"] = {f"h_{name}": {"kind": "heatmap", "sweep": name,
                                         "title": draw(st.text(max_size=4))}
                           for name in draw(st.lists(st.sampled_from(matrices),
                                                     unique=True))}
    for name, grid in grids.items():
        if draw(st.booleans()):
            spec.setdefault("figures", {})[f"c_{name}"] = {
                "kind": "curve", "sweep": name, "x": draw(st.sampled_from(sorted(grid))),
                "y": draw(_NAMES), "title": draw(st.text(max_size=4))}
    spec["expected_digests"] = draw(st.dictionaries(_NAMES, st.text(max_size=6),
                                                    max_size=2))
    return {key: value for key, value in spec.items() if value is not None}


@settings(max_examples=150, deadline=None)
@given(spec=valid_manifests())
def test_spec_encoding_matches_the_frozen_codec(spec):
    manifest = CampaignManifest.from_spec(spec)
    assert canonical_json(manifest.to_spec()) == canonical_json(
        reference_to_spec(manifest))
