"""How fast the host runs Python right now, against a fixed reference task.

A guest on a shared host gets slower CPU, not just less of it, while its
neighbours are busy (they share its core's hyperthreads, cache and memory
bandwidth), so even the CPU time a request is charged grows.  ``probe()`` times a fixed pure-Python task in CPU time on every CPU
this process may run on; the ratio of that to ``REFERENCE_MS`` is how much
slower than an uncontended host the CPU is at that moment.  The task uses
nothing from the program under test, so no change to the program moves it.
"""

from __future__ import annotations

import os
import statistics
import time

#: The task's CPU time on an uncontended host: 2-vCPU KVM guest (Linux 6.18,
#: CPython 3).  On that guest single runs fall in two groups, about 3.5 ms
#: and about 5.2 ms, switching within a second as neighbours come and go;
#: this is the fast one.
REFERENCE_MS = 3.5
#: Runs of the task per CPU in one probe.
REPEATS = 3


def reference_task() -> int:
    """Interpreter-bound work of a fixed size: dict updates, integer
    arithmetic and a sort, as a counting server's request mostly is."""
    table: dict[int, int] = {}
    for i in range(20000):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
    return sum(sorted(table.values())[:100])


def probe() -> list[float]:
    """CPU milliseconds of ``REPEATS`` runs of the task on each CPU of this
    process's affinity.

    The calling thread is pinned to one CPU at a time and unpinned after.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            for _ in range(REPEATS):
                start = time.thread_time_ns()
                reference_task()
                times.append((time.thread_time_ns() - start) / 1e6)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def slowdown(probes: list[list[float]]) -> float:
    """The host's slowdown over a run: the mean probed time over
    ``REFERENCE_MS``.  The mean, not the median: the times fall in two
    groups, and the mean follows the share of time spent in the slow one
    where a median jumps between them."""
    return statistics.fmean(t for times in probes for t in times) / REFERENCE_MS
