"""Campaign layer: manifest compilation, state journal, figures, reports."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignManifest,
    CampaignRunner,
    CampaignState,
    campaign_status,
    run_campaign,
)
from repro.campaign.figures import (
    render_curve_svg,
    render_heatmap_markdown,
    render_heatmap_svg,
    sequential_color,
)
from repro.campaign.state import _indented
from repro.experiments.matrix import DEFAULT_ATTACKS, LEGACY_STACKS

#: A deliberately tiny but representative study: one 2x2 matrix sweep, one
#: transport grid, one analysis, both figure kinds.
TINY_SPEC = {
    "name": "tiny",
    "seeds": 2,
    "sweeps": {
        "grid": {
            "kind": "matrix",
            "attacks": [{"label": "frag_poisoning", "scenario": "frag_poisoning",
                         "params": {}}],
            "stacks": [{"name": "classic", "defenses": []},
                       {"name": "frag_reject",
                        "defenses": ["fragment_rejection"]}],
        },
        "overhead": {
            "kind": "grid",
            "scenario": "transport_overhead",
            "base_params": {"queries": 2, "benign_server_count": 20},
            "grid": {"transport": ["udp", "dot"]},
            "seeds": [1],
        },
    },
    "analyses": {"summary": {"kind": "success_summary", "sweep": "grid"}},
    "figures": {
        "heatmap": {"kind": "heatmap", "sweep": "grid"},
        "overhead": {"kind": "curve", "sweep": "overhead",
                     "x": "transport", "y": "mean_time_to_answer"},
    },
}


#: The ``on_progress`` sequences of a cold and a warm TINY_SPEC run: each
#: step reports ``(0, total)`` at its start and ``(total, total)`` at its end.
TINY_COLD_PROGRESS = [
    ("sweep:grid", 0, 4), ("sweep:grid", 1, 4), ("sweep:grid", 2, 4),
    ("sweep:grid", 3, 4), ("sweep:grid", 4, 4), ("sweep:grid", 4, 4),
    ("sweep:overhead", 0, 2), ("sweep:overhead", 1, 2),
    ("sweep:overhead", 2, 2), ("sweep:overhead", 2, 2),
    ("analysis:summary", 0, 1), ("analysis:summary", 1, 1),
    ("figure:heatmap", 0, 1), ("figure:heatmap", 1, 1),
    ("figure:overhead", 0, 1), ("figure:overhead", 1, 1),
    ("report", 0, 1), ("report", 1, 1),
]
TINY_WARM_PROGRESS = [
    ("sweep:grid", 0, 4), ("sweep:grid", 4, 4), ("sweep:grid", 4, 4),
    ("sweep:overhead", 0, 2), ("sweep:overhead", 2, 2), ("sweep:overhead", 2, 2),
    ("analysis:summary", 0, 1), ("analysis:summary", 1, 1),
    ("figure:heatmap", 0, 1), ("figure:heatmap", 1, 1),
    ("figure:overhead", 0, 1), ("figure:overhead", 1, 1),
    ("report", 0, 1), ("report", 1, 1),
]


# -- manifest ----------------------------------------------------------------
class TestManifest:
    def test_roundtrip_preserves_fingerprint(self):
        manifest = CampaignManifest.from_spec(TINY_SPEC)
        again = CampaignManifest.from_spec(manifest.to_spec())
        assert manifest.fingerprint() == again.fingerprint()

    def test_fingerprint_ignores_expected_digests(self):
        pinned = dict(TINY_SPEC)
        pinned["expected_digests"] = {"sweep:grid": "ab" * 32}
        assert (CampaignManifest.from_spec(TINY_SPEC).fingerprint()
                == CampaignManifest.from_spec(pinned).fingerprint())

    def test_fingerprint_moves_with_seed_budget(self):
        grown = json.loads(json.dumps(TINY_SPEC))
        grown["seeds"] = 3
        assert (CampaignManifest.from_spec(TINY_SPEC).fingerprint()
                != CampaignManifest.from_spec(grown).fingerprint())

    def test_named_groups_resolve_to_matrix_constants(self):
        manifest = CampaignManifest.from_spec({
            "name": "groups",
            "sweeps": {"grid": {"kind": "matrix", "attacks": "default",
                                "stacks": "legacy"}},
        })
        sweep = manifest.sweep("grid")
        assert sweep.attacks == DEFAULT_ATTACKS
        assert sweep.stacks == LEGACY_STACKS

    def test_seed_budget_forms(self):
        base = {"name": "seeds", "sweeps": {
            "grid": {"kind": "matrix", "attacks": "legacy", "stacks": "legacy"}}}
        assert CampaignManifest.from_spec(
            {**base, "seeds": 3}).sweep("grid").seeds == (1, 2, 3)
        assert CampaignManifest.from_spec(
            {**base, "seeds": [7, 9]}).sweep("grid").seeds == (7, 9)

    @pytest.mark.parametrize("seeds, match", [
        ([1.7, 2], "must be distinct ints"),
        ([True, 2], "must be distinct ints"),
        (["3"], "must be distinct ints"),
        ([1, 1], "must be distinct ints"),
        ([], "must not be empty"),
    ])
    def test_explicit_seed_lists_are_validated(self, seeds, match):
        spec = json.loads(json.dumps(TINY_SPEC))
        spec["seeds"] = seeds
        with pytest.raises(ValueError, match=match):
            CampaignManifest.from_spec(spec)
        spec["seeds"] = 2
        spec["sweeps"]["grid"]["seeds"] = seeds
        with pytest.raises(ValueError, match=match):
            CampaignManifest.from_spec(spec)

    @pytest.mark.parametrize("sweep, match", [
        ("overhead", "zero parameter sets"),
        ("grid", "the matrix has no attack labels"),
        ("grid", "the matrix has no stack names"),
    ])
    def test_sweeps_with_no_cells_fail_at_compile_time(self, sweep, match):
        spec = json.loads(json.dumps(TINY_SPEC))
        entry = spec["sweeps"][sweep]
        if sweep == "overhead":
            entry["grid"] = {"transport": []}
        else:
            entry["attacks" if "attack" in match else "stacks"] = []
        with pytest.raises(ValueError, match=match):
            CampaignManifest.from_spec(spec)

    def test_duplicate_stack_names_are_rejected(self):
        spec = json.loads(json.dumps(TINY_SPEC))
        spec["sweeps"]["grid"]["stacks"] = [
            "legacy", {"name": "classic", "defenses": ["response_signing"]}]
        with pytest.raises(ValueError, match=r"duplicate stack name.*'classic'"):
            CampaignManifest.from_spec(spec)

    @pytest.mark.parametrize("mutation, match", [
        ({"sweeps": {}}, "non-empty 'sweeps'"),
        ({"sweeps": {"g": {"kind": "nope"}}}, "unknown kind"),
        ({"sweeps": {"g": {"kind": "matrix", "attacks": "marsattacks"}}},
         "unknown attack group"),
        ({"sweeps": {"g": {"kind": "grid", "scenario": "no_such_scenario"}}},
         "unknown scenario"),
        ({"analyses": {"a": {"kind": "section5", "sweep": "nope"}}},
         "unknown sweep"),
        ({"figures": {"f": {"kind": "curve", "sweep": "overhead",
                            "x": "not_a_param", "y": "whatever"}}},
         "not a grid param"),
        # Every section and entry is a mapping.
        ({"sweeps": {"g": "matrix"}}, "sweep 'g' must be a mapping"),
        ({"figures": ["heatmap"]}, "'figures' must map names to entries"),
        ({"analyses": {"a": None}}, "analysis 'a' must be a mapping"),
        ({"expected_digests": {"report": 7}},
         "'expected_digests' must map step names to digests"),
        # Unknown keys are rejected for all four entry kinds.
        ({"figures": {"f": {"kind": "heatmap", "sweep": "grid", "titel": "t"}}},
         r"figure 'f': unknown keys \['titel'\]"),
        ({"analyses": {"a": {"kind": "success_summary", "sweep": "grid",
                             "seeds": 3}}},
         r"analysis 'a': unknown keys \['seeds'\]"),
        # Scenario parameters and defense names are checked at compile time.
        ({"sweeps": {"g": {"kind": "grid", "scenario": "transport_overhead",
                           "base_params": {"no_such_knob": 1}}}},
         "unknown scenario parameter.*no_such_knob"),
        ({"sweeps": {"g": {"kind": "grid", "scenario": "transport_overhead",
                           "grid": {"no_such_knob": [1, 2]}}}},
         "unknown scenario parameter.*no_such_knob"),
        ({"sweeps": {"g": {"kind": "matrix", "attacks": [
            {"scenario": "frag_poisoning", "params": {"no_such_knob": 1}}]}}},
         "unknown scenario parameter.*no_such_knob"),
        ({"sweeps": {"g": {"kind": "matrix", "stacks": [
            {"name": "s", "defenses": ["no_such_defense"]}]}}},
         "'defenses' must list registered defenses"),
    ])
    def test_validation_fails_fast(self, mutation, match):
        spec = json.loads(json.dumps(TINY_SPEC))
        spec.update(mutation)
        with pytest.raises(ValueError, match=match):
            CampaignManifest.from_spec(spec)

    def test_section5_requires_its_cells(self):
        spec = json.loads(json.dumps(TINY_SPEC))
        spec["analyses"] = {"s5": {"kind": "section5", "sweep": "grid"}}
        with pytest.raises(ValueError, match="section5 needs cell"):
            CampaignManifest.from_spec(spec)

    def test_steps_are_the_fixed_pipeline(self):
        steps = CampaignManifest.from_spec(TINY_SPEC).steps()
        assert [(step.name, step.kind) for step in steps] == [
            ("sweep:grid", "sweep"), ("sweep:overhead", "sweep"),
            ("analysis:summary", "analysis"), ("figure:heatmap", "figure"),
            ("figure:overhead", "figure"), ("report", "report")]
        assert steps[-1].payload is None


# -- state journal -----------------------------------------------------------
class TestState:
    def test_corrupt_state_file_recovers_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"version": 1, "steps": {"x"', encoding="utf-8")
        state = CampaignState(path, "c", "fp", ["x"])
        assert state.recovered_from_corruption
        assert state.status("x") == "pending"

    @pytest.mark.parametrize("top, step", [
        ({}, {"history": {"a": 1}}),
        ({}, {"history": [1, 2]}),
        ({}, {"history": "x"}),
        ({}, {"status": None}),
        ({"steps": {"x": 5}}, {}),
        ({"runs": "x"}, {}),
        ({"campaign": 5}, {}),
        ({"fingerprint": None}, {}),
        # Step values of a type campaign_status cannot format or count on.
        ({}, {"telemetry": {"wall_seconds": "x"}}),
        ({}, {"telemetry": 5}),
        ({}, {"digest": 7}),
        ({}, {"error": ["boom"]}),
        ({}, {"total_tasks": "4"}),
        ({}, {"total_tasks": True}),
        ({}, {"done": 1.5}),
        ({}, {"telemetry": {"cache_hits": None}}),
        ({}, {"telemetry": {"cache_hits": False}}),
    ], ids=["history-dict", "history-ints", "history-str", "status-null",
            "entry-int", "runs-str", "campaign-int", "fingerprint-null",
            "wall-str", "telemetry-int", "digest-int", "error-list",
            "total-str", "total-bool", "done-float", "hits-null", "hits-bool"])
    def test_wrong_shape_journal_recovers_fresh(self, tmp_path, top, step):
        path = tmp_path / "state.json"
        entry = {"status": "done", "digest": "a" * 64,
                 "history": [{"run": 1, "digest": "a" * 64,
                              "fingerprint": "fp"}], **step}
        journal = {"version": 1, "campaign": "c", "fingerprint": "fp",
                   "runs": 1, "steps": {"x": entry}, **top}
        path.write_text(json.dumps(journal), encoding="utf-8")
        assert CampaignState.load(path) is None
        assert campaign_status(tmp_path) == (
            f"no readable campaign state under {tmp_path}")
        state = CampaignState(path, "c", "fp", ["x"])
        assert state.recovered_from_corruption
        assert state.begin_run() == 1
        state.step_started("x", 1)
        state.step_completed("x", "b" * 64)
        assert state.previous_digest("x") is None

    def test_journal_without_done_still_loads(self, tmp_path):
        # Journals written before live progress moved into state.json
        # carry total_tasks but no done.
        path = tmp_path / "state.json"
        entry = {"status": "done", "digest": "a" * 64, "total_tasks": 4,
                 "telemetry": {"wall_seconds": 0.5, "cache_hits": 4},
                 "history": [{"run": 1, "digest": "a" * 64, "fingerprint": "fp"}]}
        path.write_text(json.dumps({"version": 1, "campaign": "c", "fingerprint": "fp",
                                    "runs": 1, "steps": {"x": entry}}), encoding="utf-8")
        assert CampaignState.load(path) is not None
        assert campaign_status(tmp_path).splitlines()[1].split() == [
            "x", "done", "digest=aaaaaaaaaaaa", "cache_hits=4", "wall=0.50s"]

    def test_step_progress_records_done_without_saving(self, tmp_path):
        path = tmp_path / "state.json"
        state = CampaignState(path, "c", "fp", ["x"])
        state.begin_run()
        state.step_started("x", 4)
        state.save()
        state.step_progress("x", 3)
        assert json.loads(path.read_text(encoding="utf-8"))["steps"]["x"]["done"] == 0
        state.save()
        assert json.loads(path.read_text(encoding="utf-8"))["steps"]["x"]["done"] == 3
        state.step_completed("x", "d" * 64)
        assert state.step("x")["done"] == 4

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats(allow_nan=True, allow_infinity=True),
        lambda children: st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.none(),
                          children, max_size=3),
        max_leaves=20))
    def test_journal_layout_is_json_dumps_indent_2(self, document):
        assert _indented(document) == json.dumps(document, indent=2)

    def test_journal_layout_of_a_real_journal(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(TINY_SPEC, directory)
        journal = json.loads((directory / "state.json").read_text(encoding="utf-8"))
        assert _indented(journal) == json.dumps(journal, indent=2)

    def test_fingerprint_drift_marks_steps_stale(self, tmp_path):
        path = tmp_path / "state.json"
        first = CampaignState(path, "c", "fp1", ["x"])
        first.begin_run()
        first.step_started("x", 4)
        first.step_completed("x", "d" * 64)
        first.save()
        second = CampaignState(path, "c", "fp2", ["x"])
        assert second.stale_checkpoint
        assert second.status("x") == "stale"
        # The digest history survives for the drift ledger.
        assert second.step("x")["history"]

    def test_running_step_in_loaded_journal_means_killed(self, tmp_path):
        path = tmp_path / "state.json"
        first = CampaignState(path, "c", "fp", ["x"])
        first.begin_run()
        first.step_started("x", 4)
        first.save()
        second = CampaignState(path, "c", "fp", ["x"])
        assert second.status("x") == "pending"

    def test_previous_digest_needs_two_runs(self, tmp_path):
        path = tmp_path / "state.json"
        state = CampaignState(path, "c", "fp", ["x"])
        state.begin_run()
        state.step_completed("x", "a" * 64)
        assert state.previous_digest("x") is None
        state.begin_run()
        state.step_completed("x", "b" * 64)
        assert state.previous_digest("x") == "a" * 64

    def test_history_keeps_the_last_20_runs(self, tmp_path):
        state = CampaignState(tmp_path / "state.json", "c", "fp", ["x"])
        for run in range(25):
            state.begin_run()
            state.step_completed("x", f"{run:064x}")
        history = state.step("x")["history"]
        assert [entry["run"] for entry in history] == list(range(6, 26))


# -- figures -----------------------------------------------------------------
class TestFigures:
    def test_heatmap_is_deterministic_and_labels_cells(self):
        values = [[0.0, 1.0], [0.5, None]]
        svg = render_heatmap_svg("t", ["a1", "a2"], ["s1", "s2"], values)
        assert svg == render_heatmap_svg("t", ["a1", "a2"], ["s1", "s2"],
                                         values)
        # Direct labels: every present value printed in the cell.
        assert ">0.00<" in svg and ">1.00<" in svg and ">0.50<" in svg

    def test_sequential_ramp_clamps_and_orders(self):
        assert sequential_color(-1.0) == sequential_color(0.0)
        assert sequential_color(2.0) == sequential_color(1.0)
        assert sequential_color(0.0) != sequential_color(1.0)

    def test_heatmap_markdown_table(self):
        table = render_heatmap_markdown(["a"], ["s1", "s2"], [[1.0, None]])
        assert "| a | 1.00 | -- |" in table

    def test_curve_handles_single_tick(self):
        svg = render_curve_svg("t", "x", "y", [("y", [("only", 3.0)])])
        assert "polyline" in svg and ">3<" in svg

    def test_curve_rejects_empty_series(self):
        with pytest.raises(ValueError):
            render_curve_svg("t", "x", "y", [])


# -- end to end --------------------------------------------------------------
class TestCampaignEndToEnd:
    def test_run_report_and_warm_replay(self, tmp_path):
        result = run_campaign(TINY_SPEC, tmp_path / "c")
        digests = result.step_digests()
        assert set(digests) == {"sweep:grid", "sweep:overhead",
                                "analysis:summary", "figure:heatmap",
                                "figure:overhead", "report"}
        report_dir = result.report_dir
        report = (report_dir / "report.md").read_text(encoding="utf-8")
        assert "Digest ledger" in report
        assert "DRIFT" not in report
        assert (report_dir / "heatmap.svg").exists()
        assert (report_dir / "overhead.svg").exists()

        # Warm replay: identical digests and report bytes, zero executions.
        again = run_campaign(TINY_SPEC, tmp_path / "c")
        assert again.step_digests() == digests
        assert (again.report_dir / "report.md").read_text(
            encoding="utf-8") == report
        grid = again.outcome("sweep:grid")
        assert grid.telemetry["executed"] == 0
        assert grid.telemetry["cache_hits"] == grid.telemetry["tasks"]
        # Replayed metrics come back from the cache's sidecar, bit-exact.
        assert grid.metrics == result.outcome("sweep:grid").metrics

    def test_curve_over_list_valued_grid_values(self, tmp_path):
        spec = {"name": "lists", "seeds": 1,
                "sweeps": {"g": {"kind": "grid", "scenario": "bgp_hijack",
                                 "grid": {"defenses": [[], ["dns_0x20"]]}}},
                "figures": {"c": {"kind": "curve", "sweep": "g", "x": "defenses",
                                  "y": "attack_succeeded"}}}
        lines = run_campaign(spec, tmp_path / "c").outcome("figure:c").lines
        assert lines == [
            "defenses=[]: mean attack_succeeded = 1 over 1 run(s)",
            "defenses=['dns_0x20']: mean attack_succeeded = 1 over 1 run(s)",
        ]

    def test_campaign_directory_holds_journal_cache_and_report_only(self, tmp_path):
        directory = tmp_path / "c"
        for _ in range(2):  # cold, then warm
            run_campaign(TINY_SPEC, directory)
            assert {path.name for path in directory.iterdir()} == {
                "state.json", "cache", "report"}
            assert {path.name for path in (directory / "report").iterdir()} == {
                "report.md", "heatmap.svg", "overhead.svg"}

    def test_progress_sequence_and_journal(self, tmp_path):
        directory = tmp_path / "c"
        seen: list[tuple[str, int, int]] = []
        run_campaign(TINY_SPEC, directory, on_progress=lambda *a: seen.append(a))
        assert seen == TINY_COLD_PROGRESS
        seen.clear()
        run_campaign(TINY_SPEC, directory, on_progress=lambda *a: seen.append(a))
        assert seen == TINY_WARM_PROGRESS
        journal = json.loads((directory / "state.json").read_text(encoding="utf-8"))
        for entry in journal["steps"].values():
            assert entry["status"] == "done"
            assert entry["done"] == entry["total_tasks"]
            assert entry["telemetry"]["wall_seconds"] >= 0
        status = campaign_status(directory)
        assert "sweep:grid" in status and "done" in status and "4/4 tasks" in status

    def test_status_shows_live_progress_mid_sweep(self, tmp_path):
        directory = tmp_path / "c"
        mid_sweep: list[str] = []

        def watch(step: str, done: int, total: int) -> None:
            if step == "sweep:grid" and done == 2:
                mid_sweep.append(campaign_status(directory))

        CampaignRunner(CampaignManifest.from_spec(TINY_SPEC), directory,
                       on_progress=watch, progress_interval=0.0).run()
        (status,) = mid_sweep
        line = next(line for line in status.splitlines() if "sweep:grid" in line)
        assert line.split() == ["sweep:grid", "running", "2/4", "tasks"]

    def test_status_on_missing_directory(self, tmp_path):
        assert "no readable campaign state" in campaign_status(tmp_path)

    @staticmethod
    def _record_writes(monkeypatch) -> list:
        """Record every journal write as ``(path, expected text, text on disk)``."""
        import repro.campaign.state as state_module

        writes: list = []
        write = state_module._atomic_write_json

        def recording(path, payload):
            expected = json.dumps(payload, indent=2) + "\n"
            write(path, payload)
            writes.append((path, expected, path.read_text(encoding="utf-8")))

        monkeypatch.setattr(state_module, "_atomic_write_json", recording)
        return writes

    def test_journal_is_the_only_file_written_atomically(self, tmp_path, monkeypatch):
        directory = tmp_path / "c"
        writes = self._record_writes(monkeypatch)
        # An infinite interval leaves the fixed save points.  Cold: each of
        # the two sweeps saves at its first executed cell and at its
        # completion, then the run's end saves once.  Warm: only the end.
        for expected_writes in (5, 1):
            writes.clear()
            CampaignRunner(CampaignManifest.from_spec(TINY_SPEC), directory,
                           progress_interval=float("inf")).run()
            assert [path for path, _, _ in writes] == (
                [directory / "state.json"] * expected_writes)
            assert all(on_disk == expected for _, expected, on_disk in writes)

    def test_warm_rerun_writes_the_journal_once(self, tmp_path, monkeypatch):
        directory = tmp_path / "c"
        run_campaign(TINY_SPEC, directory)
        writes = self._record_writes(monkeypatch)
        # Even the most eager throttle: a replayed sweep has no cell to run.
        CampaignRunner(CampaignManifest.from_spec(TINY_SPEC), directory,
                       progress_interval=0.0).run()
        assert [path for path, _, _ in writes] == [directory / "state.json"]
        journal = json.loads(writes[0][2])
        assert journal["runs"] == 2
        assert {entry["status"] for entry in journal["steps"].values()} == {"done"}

    def test_cold_sweep_journal_reads_running_after_its_first_cell(self, tmp_path):
        directory = tmp_path / "c"
        on_disk: list[tuple[int, str, int]] = []

        def watch(step: str, done: int, total: int) -> None:
            if step == "sweep:grid" and 0 < done < total:
                entry = json.loads((directory / "state.json").read_text(
                    encoding="utf-8"))["steps"]["sweep:grid"]
                on_disk.append((done, entry["status"], entry["done"]))

        CampaignRunner(CampaignManifest.from_spec(TINY_SPEC), directory,
                       on_progress=watch, progress_interval=float("inf")).run()
        # Saved at the first executed cell, not again until the step ends.
        assert on_disk == [(1, "running", 1), (2, "running", 1), (3, "running", 1)]

    def test_pin_mismatch_is_highlighted(self, tmp_path):
        result = run_campaign(TINY_SPEC, tmp_path / "c")
        pinned = json.loads(json.dumps(TINY_SPEC))
        pinned["expected_digests"] = {
            "sweep:grid": result.step_digests()["sweep:grid"],
            "sweep:overhead": "0" * 64,
        }
        again = run_campaign(pinned, tmp_path / "c")
        assert again.outcome("sweep:grid").pin_ok is True
        assert again.outcome("sweep:overhead").pin_ok is False
        report = (again.report_dir / "report.md").read_text(encoding="utf-8")
        assert "PIN MISMATCH" in report and "pinned" in report

    def test_failed_step_is_journaled_and_resumable(self, tmp_path,
                                                    monkeypatch):
        import repro.campaign.runner as runner_module
        from repro.campaign import CampaignError

        directory = tmp_path / "c"

        def exploding(*args, **kwargs):
            raise RuntimeError("analysis exploded")

        monkeypatch.setattr(runner_module, "_success_summary", exploding)
        runner = CampaignRunner(CampaignManifest.from_spec(TINY_SPEC),
                                directory)
        with pytest.raises(CampaignError, match="analysis:summary"):
            runner.run()
        status = campaign_status(directory)
        assert "failed" in status and "analysis exploded" in status
        # The journal survives; a healthy re-run completes from the cache.
        monkeypatch.undo()
        result = run_campaign(TINY_SPEC, directory)
        assert result.outcome("sweep:grid").telemetry["executed"] == 0
        assert result.outcome("analysis:summary").status == "done"
