#!/usr/bin/env python3
"""Run a campaign study — resumable, observable, and always reporting.

The default (reduced) manifest is a two-sweep study: a small attack ×
defense matrix (both poisoning vectors against the classic and
fragment-rejection stacks, with the §V mitigation columns so the section5
analysis applies) and a transport-overhead grid over udp/tcp/dot/doh.
The campaign directory accumulates everything observable:

* ``state.json`` — the atomic checkpoint journal and the campaign's only
  machine-readable record (step status, live ``done``/``total_tasks``
  progress, digests, merged metrics, per-step telemetry, digest history);
* ``cache/`` — the content-addressed run cache that makes resume exact;
* ``report/`` — the self-contained report (markdown and SVG figures),
  byte-identical across runs.

Kill the process at any point — including with SIGKILL — and re-run the
same command: the campaign resumes from the checkpoint, computes only the
missing cells, and emits a byte-identical report.

Run with:  python examples/campaign_study.py --dir ./campaign-out [--workers N]
           python examples/campaign_study.py --dir ./campaign-out --status
           python examples/campaign_study.py --dir ./campaign-out --kill-after 5

``--kill-after N`` SIGKILLs the process after N completed tasks — the
hostile half of the resume demo (and what the checkpoint tests run).
``--manifest FILE`` swaps in your own manifest JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any

from repro.campaign import CampaignManifest, CampaignRunner, campaign_status

#: §V-capable matrix rows: both chronos variants plus the frag vector.
REDUCED_ATTACKS = [
    {"label": "chronos_poisoning", "scenario": "chronos_pool_attack",
     "params": {"poison_at_query": 1, "run_time_shift": False,
                "benign_server_count": 120}},
    {"label": "chronos_24h_hijack", "scenario": "chronos_pool_attack",
     "params": {"poison_at_query": 1, "run_time_shift": False,
                "benign_server_count": 120, "hijack_duration": 90000.0,
                "malicious_ttl": 300, "attacker_record_count": 4}},
    {"label": "frag_poisoning", "scenario": "frag_poisoning", "params": {}},
]

REDUCED_STACKS = [
    {"name": "classic", "defenses": []},
    {"name": "frag_reject", "defenses": ["fragment_rejection"]},
    {"name": "address_cap", "defenses": ["address_cap"]},
    {"name": "ttl_discard", "defenses": ["ttl_discard"]},
    {"name": "section5", "defenses": ["ttl_discard", "address_cap"]},
]


def reduced_manifest(seeds: int) -> dict[str, Any]:
    """The two-sweep study the README, tests, and CI job all run."""
    return {
        "name": "reduced-study",
        "seeds": seeds,
        "sweeps": {
            "grid": {"kind": "matrix", "attacks": REDUCED_ATTACKS,
                     "stacks": REDUCED_STACKS},
            "overhead": {"kind": "grid", "scenario": "transport_overhead",
                         "base_params": {"queries": 3,
                                         "benign_server_count": 30},
                         "grid": {"transport": ["udp", "tcp", "dot", "doh"]},
                         "seeds": [1, 2]},
        },
        "analyses": {
            "section5": {"kind": "section5", "sweep": "grid"},
            "summary": {"kind": "success_summary", "sweep": "grid"},
        },
        "figures": {
            "heatmap": {"kind": "heatmap", "sweep": "grid",
                        "title": "Attack success by defense stack"},
            "overhead": {"kind": "curve", "sweep": "overhead",
                         "x": "transport", "y": "mean_time_to_answer",
                         "title": "Transport handshake overhead"},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dir", type=Path, default=Path("./campaign-out"))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=2,
                        help="seed budget for the reduced manifest")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="manifest JSON (default: built-in reduced study)")
    parser.add_argument("--status", action="store_true",
                        help="print campaign status and exit")
    parser.add_argument("--kill-after", type=int, default=None, metavar="N",
                        help="SIGKILL this process after N completed tasks")
    parser.add_argument("--quiet", action="store_true")
    options = parser.parse_args(argv)

    if options.status:
        print(campaign_status(options.dir))
        return 0

    if options.manifest is not None:
        spec = json.loads(options.manifest.read_text(encoding="utf-8"))
    else:
        spec = reduced_manifest(options.seeds)
    manifest = CampaignManifest.from_spec(spec)

    completed = 0

    def on_progress(step: str, done: int, total: int) -> None:
        nonlocal completed
        completed = done
        if not options.quiet:
            print(f"\r{step}: {done}/{total}    ", end="", file=sys.stderr,
                  flush=True)
            if done >= total:
                print(file=sys.stderr)
        if (options.kill_after is not None and step.startswith("sweep:")
                and done >= options.kill_after):
            # The hostile resume demo: die the way an OOM kill or a lost
            # node would, with no chance to flush anything.
            os.kill(os.getpid(), signal.SIGKILL)

    runner = CampaignRunner(manifest, options.dir, workers=options.workers,
                            on_progress=on_progress)
    result = runner.run()
    print(result.formatted())
    print(f"report: {result.report_dir / 'report.md'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
