"""Host-speed reference: a fixed pure-Python kernel timed between operations.

On a shared host the CPU runs at a varying fraction of its speed for tens
of seconds at a time, so two runs of the same code can differ by 30%.
The benchmark therefore times a small kernel between a workload's
operations (every :data:`SAMPLE_EVERY_S` seconds of work) and divides
each operation's time by how slow the kernel ran next to it, relative to
its uncontended time (:data:`KERNELS`).  Figures then read as if measured
on an uncontended host.

The kernels never touch ``repro``, so a change to the program moves the
program's timings but not the reference.  Contention slows interpreted
code and array code by different factors, so each workload is scaled by a
reference that does its kind of work: :func:`python_kernel` mixes what
the simulator spends its time on (dict lookups, string formatting,
small-object allocation, a heap, ``struct`` packing); the fleet engine,
half interpreted and half vectorized, adds :func:`numpy_kernel`, which
sorts and scans an array.
"""

from __future__ import annotations

import heapq
import random
import statistics
import struct
import time

#: Seconds of workload time between two kernel samples.
SAMPLE_EVERY_S = 0.02
KERNEL_ITEMS = 600
ARRAY_ITEMS = 100_000


def python_kernel() -> int:
    rng = random.Random(12345)
    heap: list = []
    table: dict = {}
    out = bytearray()
    for index in range(KERNEL_ITEMS):
        key = f"host-{rng.randrange(256)}.{index % 17}"
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, key.encode()]
        entry[0] += 1
        heapq.heappush(heap, (rng.random(), index, entry))
        if len(heap) > 64:
            heapq.heappop(heap)
        out += struct.pack("!HHI", index & 0xFFFF, len(key), entry[0])
        if len(out) > 4096:
            out = bytearray()
    return len(table)


_ARRAY = None


def numpy_kernel() -> int:
    global _ARRAY
    import numpy as np

    if _ARRAY is None:
        _ARRAY = np.random.default_rng(12345).random(ARRAY_ITEMS)
    ordered = np.sort(_ARRAY)
    sums = np.cumsum(ordered)
    return int(np.searchsorted(sums, ordered[::7])[-1])


#: Reference name -> (kernels run back to back, their time in seconds on an
#: uncontended core of the 2-CPU development host).  The reference time
#: fixes the scale the figures are reported at.
KERNELS = {
    "python": ((python_kernel,), 0.0010),
    "python+numpy": ((python_kernel, numpy_kernel), 0.0028),
}


class HostSpeed:
    """Kernel samples taken during one pass, and the time they took."""

    def __init__(self, kind: str = "python") -> None:
        self.kernels, self.reference_s = KERNELS[kind]
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = 0.0
        #: Per operation: how many samples existed once it completed.
        self._marks: list[int] = []

    def after_op(self) -> None:
        """Note a completed operation; time the kernel if
        :data:`SAMPLE_EVERY_S` of work has passed since the last sample."""
        if time.perf_counter() >= self._due:
            self.sample()
        self._marks.append(len(self.samples))

    def sample(self) -> None:
        """Time the kernel once."""
        started = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        done = time.perf_counter()
        self.samples.append(done - started)
        self.spent += done - started
        self._due = done + SAMPLE_EVERY_S

    def slowdown(self) -> float:
        """How much slower than its reference time the kernel ran (1.0 = as fast)."""
        return statistics.median(self.samples) / self.reference_s

    def op_slowdowns(self) -> list[float]:
        """Per operation, the slowdown next to it: the median of the sample
        taken right after it and that sample's two neighbours."""
        samples = self.samples
        result = []
        for mark in self._marks:
            nearest = max(mark - 1, 0)
            window = samples[max(nearest - 1, 0):nearest + 2]
            result.append(statistics.median(window) / self.reference_s)
        return result


def slowdown_now(count: int, kind: str = "python") -> float:
    """Host slowdown from ``count`` back-to-back kernel runs."""
    speed = HostSpeed(kind)
    for _ in range(count):
        speed.sample()
    return speed.slowdown()
