"""Checkpoint semantics: the hostile half of the campaign contract.

Three guarantees from the issue's acceptance criteria:

* a campaign SIGKILLed mid-step resumes from its checkpoint, computes only
  the remaining cells, and its final report plus every step digest is
  byte-identical to an uninterrupted control run;
* a torn/corrupt ``state.json`` falls back to cache-driven recompute —
  same digests, no re-execution;
* growing the seed budget computes only the new cells.

The SIGKILL test runs ``examples/campaign_study.py`` in a subprocess (the
kill must take out a real process, not be simulated in-process).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import run_campaign

REPO_ROOT = Path(__file__).resolve().parent.parent
STUDY = REPO_ROOT / "examples" / "campaign_study.py"

#: Small enough to finish in seconds, big enough that a kill at task 3
#: interrupts the first sweep mid-flight.
RESUME_SPEC = {
    "name": "resume-study",
    "seeds": 2,
    "sweeps": {
        "grid": {
            "kind": "matrix",
            "attacks": [{"label": "frag_poisoning", "scenario": "frag_poisoning",
                         "params": {}}],
            "stacks": [{"name": "classic", "defenses": []},
                       {"name": "frag_reject",
                        "defenses": ["fragment_rejection"]},
                       {"name": "hardened",
                        "defenses": ["dns_0x20", "fragment_rejection"]}],
        },
        "overhead": {
            "kind": "grid",
            "scenario": "transport_overhead",
            "base_params": {"queries": 2, "benign_server_count": 20},
            "grid": {"transport": ["udp", "dot"]},
            "seeds": [1],
        },
    },
    "figures": {"heatmap": {"kind": "heatmap", "sweep": "grid"}},
}


def _run_study(tmp_path: Path, directory: Path, *extra: str
               ) -> subprocess.CompletedProcess:
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(RESUME_SPEC), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, str(STUDY), "--manifest", str(manifest),
         "--dir", str(directory), "--quiet", *extra],
        capture_output=True, text=True, env=env, timeout=300, check=False)


def _report_bytes(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted((directory / "report").iterdir())}


def _telemetry(directory: Path, step: str) -> dict:
    data = json.loads((directory / "state.json").read_text(encoding="utf-8"))
    return data["steps"][step]["telemetry"]


class TestSigkillResume:
    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        killed_dir = tmp_path / "killed"
        control_dir = tmp_path / "control"

        first = _run_study(tmp_path, killed_dir, "--kill-after", "3")
        assert first.returncode == -signal.SIGKILL, first.stderr
        state = json.loads((killed_dir / "state.json").read_text(
            encoding="utf-8"))
        assert state["steps"]["sweep:grid"]["status"] == "running"

        resumed = _run_study(tmp_path, killed_dir)
        assert resumed.returncode == 0, resumed.stderr
        control = _run_study(tmp_path, control_dir)
        assert control.returncode == 0, control.stderr

        # Byte-identical report artifacts and identical digest summaries.
        assert _report_bytes(killed_dir) == _report_bytes(control_dir)
        assert resumed.stdout.splitlines()[:-1] == control.stdout.splitlines()[:-1]

        # The resume computed only the remaining cells: whatever the killed
        # run persisted replays as cache hits, and hits + executions cover
        # the sweep exactly.
        telemetry = _telemetry(killed_dir, "sweep:grid")
        assert telemetry["cache_hits"] >= 1
        assert telemetry["executed"] == (telemetry["tasks"]
                                         - telemetry["cache_hits"])
        control_telemetry = _telemetry(control_dir, "sweep:grid")
        assert control_telemetry["cache_hits"] == 0


class TestTornState:
    @pytest.mark.parametrize("damage", [
        b'{"version": 1, "steps": {"sweep:grid": {"sta',  # torn mid-write
        b"not json at all\n",
        b'{"version": 99, "steps": {}}',  # future/unknown version
    ])
    def test_corrupt_journal_recomputes_from_cache(self, tmp_path, damage):
        directory = tmp_path / "c"
        healthy = run_campaign(RESUME_SPEC, directory)
        digests = healthy.step_digests()
        (directory / "state.json").write_bytes(damage)

        again = run_campaign(RESUME_SPEC, directory)
        assert again.step_digests() == digests
        # The journal was lost but the cache wasn't: zero re-executions.
        grid = again.outcome("sweep:grid")
        assert grid.telemetry["executed"] == 0
        assert grid.telemetry["cache_hits"] == grid.telemetry["tasks"]


class TestIncrementalGrowth:
    def test_seed_budget_growth_computes_only_new_cells(self, tmp_path):
        directory = tmp_path / "c"
        small = run_campaign(RESUME_SPEC, directory)

        grown_spec = json.loads(json.dumps(RESUME_SPEC))
        grown_spec["seeds"] = 3  # matrix sweep gains one seed column
        grown = run_campaign(grown_spec, directory)

        grid = grown.outcome("sweep:grid")
        stacks = len(RESUME_SPEC["sweeps"]["grid"]["stacks"])
        assert grid.telemetry["tasks"] == stacks * 3
        assert grid.telemetry["executed"] == stacks  # the new seed only
        assert grid.telemetry["cache_hits"] == stacks * 2
        # More data, different digest — and a fresh directory at the grown
        # budget agrees exactly with the incremental one.
        assert (grown.step_digests()["sweep:grid"]
                != small.step_digests()["sweep:grid"])
        fresh = run_campaign(grown_spec, tmp_path / "fresh")
        assert fresh.step_digests() == grown.step_digests()
