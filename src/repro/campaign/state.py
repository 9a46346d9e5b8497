"""Atomic checkpoint journal for campaign runs.

The state file is a single JSON document, ``json.dumps(data, indent=2)``,
written atomically (tmp file + ``Path.replace``) whenever the runner saves,
so a SIGKILL at any instant leaves either the previous or the next
consistent journal on disk — never a torn one.  Transitions only change
the in-memory document; :class:`~repro.campaign.runner.CampaignRunner`
decides when to write it, so a warm re-run that executes no cell writes it
once.  If the file *is* damaged some other way (disk corruption, manual
edits, a wrongly shaped document), :meth:`CampaignState.load` degrades to
a fresh journal and the campaign recomputes through the
:class:`~repro.experiments.cache.RunCache`, which remains the cell-level
source of truth.  Losing the journal costs bookkeeping, never results.

Per step the journal records status, live ``done``/``total_tasks``
progress, the digest and seed range it completed with, the merged
:class:`~repro.obs.metrics.MetricsSnapshot` (JSON round-trip exact),
wall-clock and cache-hit telemetry, and a digest *history* across runs —
the raw material for the report ledger's drift highlighting.  It is the
campaign's only machine-readable record: ``campaign status`` reads
nothing else.  The manifest fingerprint is pinned in the journal; resuming
with an edited manifest marks affected checkpoints stale instead of
trusting them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
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


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write *payload* so readers always see a complete JSON document.

    Key order is preserved (steps stay in pipeline order for human
    readers); the document is bookkeeping, not digest input.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(_indented(payload) + "\n", encoding="utf-8")
    tmp.replace(path)


def _indented(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, in a fraction of the
    time: the json module indents only with its pure-Python encoder.  Lists
    and dicts are laid out here; strings, ints and every other scalar come
    from the json module's C code."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    inner = newline + "  "
    if kind is list and value:
        items = [_indented(item, inner) for item in value]
    elif kind is dict and value:
        try:
            items = [f"{encode_basestring_ascii(key)}: {_indented(item, inner)}"
                     for key, item in value.items()]
        except TypeError:  # a key json would coerce to a string
            return json.dumps(value, indent=2).replace("\n", newline)
    else:  # empty, a tuple or a subclass: json's own layout
        return json.dumps(value, indent=2).replace("\n", newline)
    opening, closing = ("[", "]") if kind is list else ("{", "}")
    return opening + inner + ("," + inner).join(items) + newline + closing


class CampaignState:
    """The persisted journal for one campaign directory.

    The transitions (:meth:`begin_run`, :meth:`step_started`,
    :meth:`step_progress`, :meth:`step_completed`, :meth:`step_failed`)
    change only the in-memory dict; :meth:`save` writes it.  The runner
    saves at five points: when a sweep first reports a cell still to run
    after cache replay, at most every ``progress_interval`` seconds while
    cells execute, when a step that executed cells completes, when a step
    fails, and once when the run ends.
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
        return data if all(_valid_step(entry) for entry in steps.values()) else None

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

    # -- transitions ---------------------------------------------------------
    def begin_run(self) -> int:
        self.data["runs"] = self.runs + 1
        return self.runs

    def step_started(self, name: str, total_tasks: int) -> None:
        entry = self.step(name)
        entry["status"] = RUNNING
        entry["total_tasks"] = total_tasks
        entry["done"] = 0
        entry.pop("error", None)

    def step_progress(self, name: str, done: int) -> None:
        """Record a running step's completed-task count."""
        self.step(name)["done"] = done

    def step_completed(self, name: str, digest: str, *,
                       seeds: Optional[list[int]] = None,
                       metrics: Optional[dict[str, Any]] = None,
                       telemetry: Optional[dict[str, Any]] = None) -> None:
        entry = self.step(name)
        entry["status"] = DONE
        entry["digest"] = digest
        if "total_tasks" in entry:
            entry["done"] = entry["total_tasks"]
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

    def step_failed(self, name: str, error: str) -> None:
        entry = self.step(name)
        entry["status"] = FAILED
        entry["error"] = error

    def save(self) -> None:
        _atomic_write_json(self.path, self.data)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _valid_step(entry: Any) -> bool:
    """Whether a loaded step entry has the shape every reader relies on."""
    if not (isinstance(entry, dict) and isinstance(entry.get("status"), str)):
        return False
    history = entry.get("history", [])
    telemetry = entry.get("telemetry", {})
    return (isinstance(history, list) and all(isinstance(item, dict) for item in history)
            and all(isinstance(entry.get(key, ""), str) for key in ("digest", "error"))
            and all(_is_int(entry.get(key, 0)) for key in ("total_tasks", "done"))
            and isinstance(telemetry, dict)
            and all(_is_number(telemetry.get(key, 0)) for key in ("wall_seconds", "cache_hits")))
