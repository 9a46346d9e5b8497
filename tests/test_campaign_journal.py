"""Differential gate: the campaign journal's incremental encoder.

``CampaignState.save`` re-encodes only the step entries a transition
changed and splices them into one document.  On random transition
sequences -- runs, starts, live progress, completions with arbitrary JSON
metrics and telemetry, failures, history trimming, reopening under the same or an
edited fingerprint, hostile step names -- the bytes on disk after every
save must equal ``json.dumps(data, indent=2) + "\\n"``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignState

# -- strategies ----------------------------------------------------------------

step_names = st.one_of(
    st.sampled_from(['sweep:grid', 'a"b', "back\\slash", "line\nbreak",
                     "\x00\x1f\x7f", "schritt-ä", "步骤", " ", "🙂"]),
    st.text(max_size=8))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=12)
json_objects = st.none() | st.dictionaries(st.text(max_size=6), json_values,
                                           max_size=4)
#: Indexes a step modulo the current step list, which reopening may change.
index = st.integers(min_value=0, max_value=7)
transitions = st.one_of(
    st.tuples(st.just("begin")),
    st.tuples(st.just("start"), index, st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("progress"), index, st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("complete"), index, st.text(max_size=64),
              st.none() | st.lists(st.integers(), max_size=4),
              json_objects, json_objects),
    st.tuples(st.just("fail"), index, st.text(max_size=12)),
    # More than 20 completions in a row: the history is trimmed.
    st.tuples(st.just("burst"), index, st.integers(min_value=21, max_value=24)),
    st.tuples(st.just("reopen"), st.sampled_from(["fp", "fp-edited"]),
              st.lists(index, min_size=1, max_size=4)),
)


def assert_on_disk(state: CampaignState) -> None:
    expected = json.dumps(state.data, indent=2) + "\n"
    assert state.path.read_bytes() == expected.encode("utf-8")


def apply(state: CampaignState, op: tuple) -> None:
    """Run one transition (each saves exactly once) and check the file.

    ``step_progress`` does not save; the runner's throttle does, so the
    op saves right after it."""
    kind = op[0]
    if kind == "begin":
        state.begin_run()
        assert_on_disk(state)
        return
    names = list(state.data["steps"])
    name = names[op[1] % len(names)]
    if kind == "start":
        state.step_started(name, op[2])
    elif kind == "progress":
        state.step_progress(name, op[2])
        state.save()
    elif kind == "complete":
        _, _, digest, seeds, metrics, telemetry = op
        state.step_completed(name, digest, seeds=seeds, metrics=metrics,
                             telemetry=telemetry)
    elif kind == "fail":
        state.step_failed(name, op[2])
    else:  # burst
        for run in range(op[2]):
            state.step_completed(name, f"{run:064x}", telemetry={"run": run})
            assert_on_disk(state)
        assert len(state.step(name)["history"]) == 20
    assert_on_disk(state)


# -- the gate ------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(pool=st.lists(step_names, min_size=1, max_size=4, unique=True),
       ops=st.lists(transitions, max_size=25))
def test_saved_bytes_equal_full_encoding(pool, ops):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "state.json"
        state = CampaignState(path, "c", "fp", pool)
        for op in ops:
            if op[0] == "reopen":
                chosen = list(dict.fromkeys(pool[i % len(pool)] for i in op[2]))
                state = CampaignState(path, "c", op[1], chosen)
                continue
            apply(state, op)


def test_step_cache_stays_bounded_by_step_count(tmp_path):
    names = ["sweep:grid", "analysis:summary", "report"]
    state = CampaignState(tmp_path / "state.json", "c", "fp", names)
    for run in range(50):
        state.begin_run()
        for name in names:
            state.step_started(name, 4)
            state.step_completed(name, f"{run:064x}", metrics={"run": run})
    assert len(state._step_texts) <= len(names)
    assert len(state.step("report")["history"]) == 20
    assert_on_disk(state)
