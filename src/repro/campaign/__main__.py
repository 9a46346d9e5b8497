"""CLI for campaigns: ``python -m repro.campaign {run,status} ...``.

``run`` executes (or resumes) a manifest JSON file in a campaign
directory and prints the per-step digest summary; ``status`` renders the
live text view from the checkpoint journal (``state.json``), usable while
another process is mid-run and after a kill.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import CampaignError, CampaignManifest, CampaignRunner, campaign_status


def _progress_printer(step: str, done: int, total: int) -> None:
    print(f"\r{step}: {done}/{total}", end="", file=sys.stderr, flush=True)
    if done >= total:
        print(file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.campaign",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run or resume a campaign")
    run.add_argument("manifest", type=Path, help="manifest JSON file")
    run.add_argument("--dir", type=Path, required=True,
                     help="campaign directory (journal, cache, report)")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--quiet", action="store_true",
                     help="suppress live progress on stderr")

    status = commands.add_parser("status", help="show campaign status")
    status.add_argument("--dir", type=Path, required=True)

    options = parser.parse_args(argv)
    if options.command == "status":
        print(campaign_status(options.dir))
        return 0

    try:
        spec = json.loads(options.manifest.read_text(encoding="utf-8"))
        manifest = CampaignManifest.from_spec(spec)
    except (OSError, ValueError) as exc:
        print(f"invalid manifest: {exc}", file=sys.stderr)
        return 2
    runner = CampaignRunner(
        manifest, options.dir, workers=options.workers,
        on_progress=None if options.quiet else _progress_printer)
    try:
        result = runner.run()
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(campaign_status(options.dir))
        return 1
    print(result.formatted())
    print(f"report: {result.report_dir / 'report.md'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
