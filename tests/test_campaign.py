"""Campaign layer: manifest compilation, state journal, figures, reports."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignManifest,
    CampaignRunner,
    CampaignState,
    Step,
    campaign_status,
    dependency_order,
    run_campaign,
)
from repro.campaign.figures import (
    render_curve_svg,
    render_heatmap_markdown,
    render_heatmap_svg,
    sequential_color,
)
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

    def test_steps_are_dependency_ordered_report_last(self):
        steps = CampaignManifest.from_spec(TINY_SPEC).steps()
        names = [step.name for step in steps]
        assert names[-1] == "report"
        for step in steps:
            for dep in step.depends:
                assert names.index(dep) < names.index(step.name)

    def test_dependency_cycle_detected(self):
        loop = [Step(name="a", kind="sweep", depends=("b",)),
                Step(name="b", kind="sweep", depends=("a",))]
        with pytest.raises(ValueError, match="cycle"):
            dependency_order(loop)


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
    ], ids=["history-dict", "history-ints", "history-str", "status-null",
            "entry-int", "runs-str", "campaign-int", "fingerprint-null"])
    def test_wrong_shape_journal_recovers_fresh(self, tmp_path, top, step):
        path = tmp_path / "state.json"
        entry = {"status": "done", "digest": "a" * 64,
                 "history": [{"run": 1, "digest": "a" * 64,
                              "fingerprint": "fp"}], **step}
        journal = {"version": 1, "campaign": "c", "fingerprint": "fp",
                   "runs": 1, "steps": {"x": entry}, **top}
        path.write_text(json.dumps(journal), encoding="utf-8")
        assert CampaignState.load(path) is None
        state = CampaignState(path, "c", "fp", ["x"])
        assert state.recovered_from_corruption
        assert state.begin_run() == 1
        state.step_started("x", 1)
        state.step_completed("x", "b" * 64)
        assert state.previous_digest("x") is None

    def test_fingerprint_drift_marks_steps_stale(self, tmp_path):
        path = tmp_path / "state.json"
        first = CampaignState(path, "c", "fp1", ["x"])
        first.begin_run()
        first.step_started("x", 4)
        first.step_completed("x", "d" * 64)
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
        assert (report_dir / "telemetry.json").exists()

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

    def test_progress_surface_and_status_view(self, tmp_path):
        seen: list[tuple[str, int, int]] = []
        run_campaign(TINY_SPEC, tmp_path / "c", on_progress=lambda *a:
                     seen.append(a))
        assert any(step == "sweep:grid" and done == total == 4
                   for step, done, total in seen)
        progress = json.loads((tmp_path / "c" / "progress.json").read_text(
            encoding="utf-8"))
        assert progress["tasks_done"] == progress["tasks_total"]
        status = campaign_status(tmp_path / "c")
        assert "sweep:grid" in status and "done" in status

    def test_status_on_missing_directory(self, tmp_path):
        assert "no readable campaign state" in campaign_status(tmp_path)

    @pytest.mark.parametrize("progress", [
        "[]", '{"steps": []}', '{"steps": {"sweep:grid": 5}}'],
        ids=["list", "steps-list", "step-int"])
    def test_status_reads_damaged_progress_as_no_progress(self, tmp_path,
                                                          progress):
        CampaignState(tmp_path / "state.json", "c", "fp",
                      ["sweep:grid"]).begin_run()
        without_progress = campaign_status(tmp_path)
        (tmp_path / "progress.json").write_text(progress, encoding="utf-8")
        assert campaign_status(tmp_path) == without_progress

    def test_progress_file_written_once_per_forced_flush(self, tmp_path,
                                                         monkeypatch):
        import repro.campaign.runner as runner_module

        directory = tmp_path / "c"
        writes: list[str] = []
        write = runner_module._atomic_write_json

        def recording(path, payload):
            if path == directory / "progress.json":
                writes.append(json.dumps(payload, indent=2) + "\n")
            write(path, payload)

        monkeypatch.setattr(runner_module, "_atomic_write_json", recording)
        # An infinite interval leaves only the forced flushes: the initial
        # one and each step's "done".
        runner = CampaignRunner(CampaignManifest.from_spec(TINY_SPEC),
                                directory, progress_interval=float("inf"))
        runner.run()
        assert len(writes) == len(runner.steps) + 1
        assert all(a != b for a, b in zip(writes, writes[1:]))
        final = json.loads(writes[-1])
        assert final["tasks_done"] == final["tasks_total"]
        assert {entry["status"] for entry in final["steps"].values()} == {"done"}
        assert (directory / "progress.json").read_text(
            encoding="utf-8") == writes[-1]

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
