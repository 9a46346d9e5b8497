"""Atomic checkpoint journal for campaign runs.

The state file is a single JSON document written atomically (tmp file +
``Path.replace``) at every step transition, so a SIGKILL at any instant
leaves either the previous or the next consistent journal on disk — never
a torn one.  Each save re-encodes only the step entry that changed, and
the bytes equal ``json.dumps(data, indent=2)``.  If the file *is* damaged
some other way (disk corruption, manual edits, a wrongly shaped document),
:meth:`CampaignState.load` degrades to a fresh journal and
the campaign recomputes through the :class:`~repro.experiments.cache.RunCache`,
which remains the cell-level source of truth.  Losing the journal costs
bookkeeping, never results.

Per step the journal records status, the digest and seed range it
completed with, the merged :class:`~repro.obs.metrics.MetricsSnapshot`
(JSON round-trip exact), wall-clock and cache-hit telemetry, and a digest
*history* across runs — the raw material for the report ledger's drift
highlighting.  The manifest fingerprint is pinned in the journal; resuming
with an edited manifest marks affected checkpoints stale instead of
trusting them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Optional

STATE_VERSION = 1

#: Step lifecycle: pending -> running -> done | failed.  ``stale`` marks a
#: checkpoint recorded under a different manifest fingerprint.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STALE = "stale"


def _atomic_write_json(path: Path, payload: dict[str, Any] | str) -> None:
    """Write *payload* so readers always see a complete JSON document.

    A string is written as is: already the ``json.dumps(indent=2)`` text.
    Key order is preserved (steps stay in dependency order for human
    readers); the document is bookkeeping, not digest input.
    """
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


class CampaignState:
    """The persisted journal for one campaign directory.

    All mutating helpers save immediately; the in-memory dict mirrors the
    on-disk document at every step boundary.  Step entries change only
    through these helpers, which drop the entry's cached encoding.
    """

    def __init__(self, path: Path, name: str, fingerprint: str,
                 step_names: list[str]) -> None:
        self.path = Path(path)
        self.recovered_from_corruption = False
        loaded = self.load(self.path)
        if loaded is None:
            self.recovered_from_corruption = self.path.exists()
            loaded = {"version": STATE_VERSION, "campaign": name,
                      "fingerprint": fingerprint, "runs": 0, "steps": {}}
        self.data = loaded
        #: Step name -> that entry's encoding, nested at its depth in the file.
        self._step_texts: dict[str, str] = {}
        self._reconcile(name, fingerprint, step_names)

    # -- loading -------------------------------------------------------------
    @staticmethod
    def load(path: Path) -> Optional[dict[str, Any]]:
        """Best-effort read; ``None`` for missing, torn, or foreign files."""
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(data, dict) or data.get("version") != STATE_VERSION:
            return None
        steps = data.get("steps")
        if not (isinstance(steps, dict) and isinstance(data.get("runs"), int)
                and isinstance(data.get("campaign"), str)
                and isinstance(data.get("fingerprint"), str)):
            return None
        for entry in steps.values():
            history = entry.get("history", []) if isinstance(entry, dict) else None
            if not (isinstance(history, list) and isinstance(entry.get("status"), str)
                    and all(isinstance(item, dict) for item in history)):
                return None
        return data

    def _reconcile(self, name: str, fingerprint: str,
                   step_names: list[str]) -> None:
        """Align the loaded journal with the manifest being run.

        A different fingerprint (edited manifest, grown seed budget) or a
        different campaign name demotes every recorded checkpoint to
        ``stale``: its digest history is kept for the drift ledger, but the
        step must re-run — cheaply, through the cache — before it counts
        as done again.  Steps that vanished from the manifest are dropped;
        new steps appear as ``pending``.
        """
        self.stale_checkpoint = (
            self.data.get("campaign") != name
            or self.data.get("fingerprint") != fingerprint)
        steps: dict[str, Any] = self.data.get("steps", {})
        reconciled: dict[str, Any] = {}
        for step_name in step_names:
            entry = steps.get(step_name)
            if entry is None:
                entry = {"status": PENDING, "history": []}
            elif self.stale_checkpoint or entry.get("status") == RUNNING:
                # A RUNNING step in a loaded journal means the process was
                # killed mid-step: the checkpoint is an honest "unfinished".
                entry = dict(entry)
                entry["status"] = STALE if self.stale_checkpoint else PENDING
            reconciled[step_name] = entry
        self.data["campaign"] = name
        self.data["fingerprint"] = fingerprint
        self.data["version"] = STATE_VERSION
        self.data["steps"] = reconciled

    # -- accessors -----------------------------------------------------------
    @property
    def runs(self) -> int:
        return int(self.data.get("runs", 0))

    def step(self, name: str) -> dict[str, Any]:
        return self.data["steps"][name]

    def status(self, name: str) -> str:
        return self.step(name).get("status", PENDING)

    def digest(self, name: str) -> Optional[str]:
        return self.step(name).get("digest")

    def previous_digest(self, name: str) -> Optional[str]:
        """The most recent *comparable* digest from an earlier run, if any.

        Comparable means recorded under the current manifest fingerprint:
        an edited manifest (grown seed budget, new stack) is *expected* to
        move digests, so those history entries must not read as drift —
        drift is a digest change with the study held fixed.
        """
        history = self.step(name).get("history") or []
        fingerprint = self.data.get("fingerprint")
        for entry in reversed(history[:-1]):
            if entry.get("fingerprint") == fingerprint:
                return entry.get("digest")
        return None

    # -- transitions (each saves atomically) ---------------------------------
    def begin_run(self) -> int:
        self.data["runs"] = self.runs + 1
        self.save()
        return self.runs

    def step_started(self, name: str, total_tasks: int) -> None:
        self._step_texts.pop(name, None)
        entry = self.step(name)
        entry["status"] = RUNNING
        entry["total_tasks"] = total_tasks
        entry.pop("error", None)
        self.save()

    def step_completed(self, name: str, digest: str, *,
                       seeds: Optional[list[int]] = None,
                       metrics: Optional[dict[str, Any]] = None,
                       telemetry: Optional[dict[str, Any]] = None) -> None:
        self._step_texts.pop(name, None)
        entry = self.step(name)
        entry["status"] = DONE
        entry["digest"] = digest
        if seeds is not None:
            entry["seeds"] = list(seeds)
        if metrics is not None:
            entry["metrics"] = metrics
        if telemetry is not None:
            entry["telemetry"] = telemetry
        history = entry.setdefault("history", [])
        history.append({"run": self.runs, "digest": digest,
                        "fingerprint": self.data.get("fingerprint")})
        # The history is a drift record, not an unbounded log.
        del history[:-20]
        self.save()

    def step_failed(self, name: str, error: str) -> None:
        self._step_texts.pop(name, None)
        entry = self.step(name)
        entry["status"] = FAILED
        entry["error"] = error
        self.save()

    def save(self) -> None:
        """Write ``json.dumps(self.data, indent=2) + "\\n"``, byte for byte.

        Only entries changed since the last save are encoded.  ``json.dumps``
        escapes newlines inside strings, so nesting a text is a replace.
        """
        steps, texts = self.data["steps"], self._step_texts
        for name in steps.keys() - texts.keys():
            texts[name] = (f"    {json.dumps(name)}: "
                           + json.dumps(steps[name], indent=2).replace("\n", "\n    "))
        members = []
        for key, value in self.data.items():
            if key != "steps":
                text = json.dumps(value, indent=2).replace("\n", "\n  ")
            elif steps:
                text = "{\n" + ",\n".join(texts[name] for name in steps) + "\n  }"
            else:
                text = "{}"
            members.append(f"  {json.dumps(key)}: {text}")
        _atomic_write_json(self.path, "{\n" + ",\n".join(members) + "\n}\n")

    # -- summaries -----------------------------------------------------------
    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.data["steps"].values():
            status = entry.get("status", PENDING)
            counts[status] = counts.get(status, 0) + 1
        return counts

    def formatted(self) -> str:
        """One status line per step, suitable for ``campaign status``."""
        lines = [f"campaign {self.data['campaign']!r} "
                 f"(fingerprint {self.data['fingerprint'][:12]}, "
                 f"runs={self.runs})"]
        for name, entry in self.data["steps"].items():
            status = entry.get("status", PENDING)
            parts = [f"  {name:<28} {status:<8}"]
            if entry.get("digest"):
                parts.append(f"digest={entry['digest'][:12]}")
            telemetry = entry.get("telemetry") or {}
            if "tasks" in telemetry:
                parts.append(f"tasks={telemetry['tasks']}")
            if "cache_hits" in telemetry:
                parts.append(f"cache_hits={telemetry['cache_hits']}")
            if "wall_seconds" in telemetry:
                parts.append(f"wall={telemetry['wall_seconds']:.2f}s")
            if entry.get("error"):
                parts.append(f"error={entry['error']}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


def now() -> float:
    """Wall-clock for telemetry only — never feeds digests or reports."""
    return time.monotonic()
