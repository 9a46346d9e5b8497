"""Shared helpers for the benchmark harness.

Every benchmark regenerates the rows/series behind one of the paper's
experiments (E1-E9, see the README's "Benchmarks / reproduction report"
section) and prints them, so a ``pytest benchmarks/ --benchmark-only -s``
run doubles as the reproduction report.  Printing goes through :func:`emit` so the output stays readable when
pytest captures it.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterable
from pathlib import Path


def emit(title: str, lines: Iterable[str]) -> None:
    """Print one experiment block (title + rows)."""
    print()
    print(f"=== {title} ===")
    for line in lines:
        print(line)


def cgroup_cpu_quota() -> float:
    """Effective CPU limit from cgroup v2/v1 quotas (inf when unlimited).

    Containers commonly expose the host's full affinity mask while a CFS
    quota caps actual parallelism; gating speedup assertions on the mask
    alone would then fail for pure timing reasons.
    """
    with contextlib.suppress(OSError, ValueError):  # cgroup v2
        with Path("/sys/fs/cgroup/cpu.max").open() as handle:
            quota, period = handle.read().split()[:2]
        if quota != "max":
            return float(quota) / float(period)
    with contextlib.suppress(OSError, ValueError):  # cgroup v1
        with Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").open() as handle:
            quota = int(handle.read())
        with Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").open() as handle:
            period = int(handle.read())
        if quota > 0:
            return quota / period
    return float("inf")


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity- and quota-aware)."""
    import os

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        affinity = os.cpu_count() or 1
    return int(min(affinity, cgroup_cpu_quota()))
