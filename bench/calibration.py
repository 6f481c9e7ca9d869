"""Speed calibration: short slices of fixed reference work, timed in the
same thread and on the same core as the workload they calibrate.

On a shared virtual machine the wall time of identical work varies in two
ways.  The thread waits while the kernel runs something else on its core
or the hypervisor lends the virtual CPU to another guest (steal time);
such waits last milliseconds and land on single verdicts at random, so
they move tail percentiles most.  And while it runs, the thread goes up
to twice as fast or as slow within a second, as other tenants contend for
the physical core and its caches.

The harness therefore times the workload and the slices in thread CPU
time (``time.thread_time``), which leaves the waits out: the kernel counts
only the time the thread runs, and with paravirtualised time accounting
it subtracts steal time too.  It takes a slice every ``SLICE_INTERVAL_S``
and reports every time in reference seconds: the CPU time of the work
between two slices is scaled by ``REFERENCE_SLICE_S`` over the mean time
of the ``WINDOW`` slices on each side of it.  The speed changes faster
than a pass, so a factor for the whole pass would weigh a verdict taken
while the core ran fast like one taken while it ran slowly, and a median
of the slices would follow whichever speed lasted longer.

On an idle machine thread CPU time and wall time of this single-threaded,
CPU-bound work agree, and ``REFERENCE_SLICE_S`` is about the mean slice
time on the reference machine, so reference seconds are close to its
wall seconds.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter, thread_time

#: Mean CPU seconds one slice took on the reference machine, an Intel Xeon
#: (Sapphire Rapids) KVM guest with 2 vCPUs running CPython 3.11.7.
REFERENCE_SLICE_S = 0.004
#: Wall time between slices while a workload runs.
SLICE_INTERVAL_S = 0.1
#: Slices on each side of a stretch of work whose mean time scales it.
WINDOW = 3


def _reference_work() -> int:
    """Plain-Python work like the package's hot paths: tuple building,
    sorting, dict and set updates.  It uses no package code, so a change
    to the package cannot change its speed."""
    rows = [((i * 7919) % 101, i % 13, (i * 31) % 7, str(i % 17)) for i in range(300)]
    rows.sort()
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[1:3], set()).add(row[0])
    return len(groups) + len(frozenset(rows))


class Calibrator:
    """Times slices of reference work in thread CPU time, and the thread
    CPU time at which each began and ended."""

    def __init__(self):
        self.slices: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._last = perf_counter()

    def slice(self) -> float:
        """Time one slice; returns the wall time it took, which a tracer
        cuts from its wall-clock spans."""
        start, cpu = perf_counter(), thread_time()
        for _ in range(10):
            _reference_work()
        end = thread_time()
        self._last = perf_counter()
        self.slices.append(end - cpu)
        self.starts.append(cpu)
        self.ends.append(end)
        return self._last - start

    def tick(self) -> float:
        """Take a slice if the last one is ``SLICE_INTERVAL_S`` old;
        returns the wall time taken, 0 if none."""
        if perf_counter() - self._last >= SLICE_INTERVAL_S:
            return self.slice()
        return 0.0

    def factors(self) -> list[float]:
        """Reference seconds per CPU second of the work between slice k
        and slice k + 1, for each k."""
        return [
            REFERENCE_SLICE_S / statistics.fmean(self.slices[max(0, k + 1 - WINDOW): k + 1 + WINDOW])
            for k in range(len(self.slices) - 1)
        ]

    def work_s(self) -> float:
        """CPU seconds of the work between the first and the last slice."""
        return sum(self.starts[k + 1] - self.ends[k] for k in range(len(self.slices) - 1))

    def reference_s(self) -> float:
        """The same work in reference seconds."""
        return sum(
            (self.starts[k + 1] - self.ends[k]) * factor for k, factor in enumerate(self.factors())
        )

    def scale(self, latencies, ends) -> list[float]:
        """Latencies in CPU seconds that ended at the thread CPU times
        ``ends``, in reference seconds: each is scaled by the factor of the
        work between the slices around it."""
        factors = self.factors()
        last = len(factors) - 1
        return [
            latency * factors[min(last, bisect_right(self.starts, end) - 1)]
            for latency, end in zip(latencies, ends)
        ]


def reference_factor(slices: list[float]) -> float:
    """Reference seconds per CPU second, from the slice times of a run."""
    return REFERENCE_SLICE_S / statistics.fmean(slices)
