"""Out-of-band span recorder for the traced benchmark run.

The traced run wraps public functions of each layer of ``repro`` at run
time (see :mod:`layers`) and restores them afterwards; nothing under
``src/`` changes.  Every wrapped call becomes one span: name, start, end,
parent span and task id.  A *task* is the unit of work the workload
issues (one scenario run, one serving query, one cohort, one campaign
re-run); every span opened inside it carries its id.

Spans are kept in memory in flat arrays and written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover; self time and call counts are folded per layer as spans close, so
the per-layer report never has to walk the span list.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any, Optional

#: ``before(recorder, args, kwargs) -> state`` runs as the span opens;
#: ``after(recorder, state, args, kwargs, result)`` runs when the call
#: returned normally.  Both are optional and feed ``recorder.counts``.
BeforeHook = Callable[["SpanRecorder", tuple, dict], Any]
AfterHook = Callable[["SpanRecorder", Any, tuple, dict, Any], None]
#: ``row(args, kwargs) -> label or None``: names the row a task belongs to.
RowOf = Callable[[tuple, dict], Optional[str]]


class SpanRecorder:
    """Collects spans, per-layer self time, call counts and work counts."""

    def __init__(self, layers: Sequence[str]) -> None:
        self.layers = list(layers)
        self._layer_index = {name: index for index, name in enumerate(self.layers)}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer: list[int] = []
        #: Called with no arguments whenever the outermost task closes.
        self.on_task_end: Optional[Callable[[], None]] = None
        count = len(self.layers)
        self.self_s = [0.0] * count
        self.calls = [0] * count
        self.depth = [0] * count
        self.name_depth: list[int] = []
        self.counts: Counter = Counter()
        self.rows: dict[str, list[float]] = {}
        self.row_tasks: Counter = Counter()
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_task = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._next_id = 0
        self.task = -1
        self._row: Optional[list[float]] = None

    # -- registration --------------------------------------------------------
    def name_index(self, name: str, layer: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self._name_ids[name] = index
        self._name_layer.append(self._layer_index[layer])
        self.name_depth.append(0)
        return index

    def active(self, name: str) -> bool:
        """Whether a span of this name is open on the current call stack."""
        return self.name_depth[self._name_ids[name]] > 0

    def inside(self, layer: str) -> bool:
        """Whether any span of ``layer`` is open on the current call stack."""
        return self.depth[self._layer_index[layer]] > 0

    # -- the wrapper -----------------------------------------------------------
    def wrap(self, name: str, layer: str, fn: Callable,
             before: Optional[BeforeHook] = None,
             after: Optional[AfterHook] = None,
             row_of: Optional[RowOf] = None,
             task: bool = False) -> Callable:
        """A span-recording stand-in for ``fn`` (same signature, same result).

        ``task=True`` makes a call start a new task id when no task is
        open yet; ``row_of`` additionally names the row the task's self
        time is booked to.
        """
        index = self.name_index(name, layer)
        layer_index = self._name_layer[index]
        perf = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            saved = None
            if task and recorder.task < 0:
                saved = (recorder.task, recorder._row)
                recorder.task = span_id
                if row_of is not None:
                    label = row_of(args, kwargs)
                    if label is not None:
                        recorder.row_tasks[label] += 1
                        recorder._row = recorder.rows.setdefault(
                            label, [0.0] * len(recorder.layers))
            state = before(recorder, args, kwargs) if before is not None else None
            frame = [span_id, 0.0]
            stack.append(frame)
            recorder.depth[layer_index] += 1
            recorder.name_depth[index] += 1
            task_id = recorder.task
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.counts[f"{name}.raised"] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                recorder.depth[layer_index] -= 1
                recorder.name_depth[index] -= 1
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                recorder.self_s[layer_index] += own
                recorder.calls[layer_index] += 1
                if recorder._row is not None:
                    recorder._row[layer_index] += own
                recorder.span_id.append(span_id)
                recorder.span_name.append(index)
                recorder.span_parent.append(parent)
                recorder.span_task.append(task_id)
                recorder.span_start.append(start)
                recorder.span_end.append(end)
                if saved is not None:
                    recorder.task, recorder._row = saved
                    if recorder.on_task_end is not None:
                        recorder.on_task_end()
            if after is not None:
                after(recorder, state, args, kwargs, result)
            return result

        return wrapper

    # -- reporting -------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def attributed_s(self) -> float:
        return sum(self.self_s)

    def write_spans(self, path: Path) -> None:
        """Write every span as one tab-separated line (with a header), gzipped.

        Columns: span id, parent id (-1 for a root), task id, name, start
        and end in seconds relative to the earliest start.  Lines come in
        the order spans closed (children before their parents).
        """
        origin = min(self.span_start) if self.span_start else 0.0
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\ttask\tname\tstart_s\tend_s\n")
            for position, span_id in enumerate(self.span_id):
                handle.write(
                    f"{span_id}\t{self.span_parent[position]}\t"
                    f"{self.span_task[position]}\t"
                    f"{names[self.span_name[position]]}\t"
                    f"{self.span_start[position] - origin:.9f}\t"
                    f"{self.span_end[position] - origin:.9f}\n")


class Patcher:
    """Installs wrappers over module functions and class attributes; undoes them.

    A module-level function is replaced in every loaded ``repro`` module
    that holds it under any name, because callers import functions by
    name (``from ..netsim.addresses import ip_to_int``).
    """

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def patch_function(self, module_name: str, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def patch_method(self, owner: type, attr: str,
                     make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(make(raw.__func__)))
        else:
            self._set(owner, attr, make(raw))

    def _set(self, target: Any, attr: str, value: Any) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def restore(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()
