"""Differential gate: the journal's save schedule never changes its content.

``CampaignRunner.run`` decides when ``state.json`` is written; the
transitions only change the in-memory document.  However often it saves,
the journal a run leaves behind must be the same: a cold and then a warm
run of ``TINY_SPEC`` with ``progress_interval=0`` (save at every reported
cell) and with ``float("inf")`` (only the fixed save points) must end with
identical ``state.json`` files once the wall-clock telemetry is masked.
"""

from __future__ import annotations

import json
from pathlib import Path

from test_campaign import TINY_SPEC

from repro.campaign import CampaignManifest, CampaignRunner

#: Wall-clock telemetry: the only journal values that differ between runs.
MASKED = ("wall_seconds", "task_seconds_total")


def final_journal(directory: Path, progress_interval: float) -> dict:
    manifest = CampaignManifest.from_spec(TINY_SPEC)
    for _ in range(2):  # cold, then warm
        CampaignRunner(manifest, directory,
                       progress_interval=progress_interval).run()
    journal = json.loads((directory / "state.json").read_text(encoding="utf-8"))
    for entry in journal["steps"].values():
        for key in MASKED:
            entry["telemetry"].pop(key, None)
    return journal


def test_save_schedule_does_not_change_the_final_journal(tmp_path):
    eager = final_journal(tmp_path / "eager", 0.0)
    lazy = final_journal(tmp_path / "lazy", float("inf"))
    assert eager == lazy
    assert eager["runs"] == 2
    for entry in eager["steps"].values():
        assert entry["status"] == "done"
        assert entry["done"] == entry["total_tasks"]
        assert len(entry["history"]) == 2
