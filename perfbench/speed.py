"""Machine-speed gauge: turns measured seconds into reference seconds.

On a shared machine one core's speed switches between a fast and a slow
phase, about two times slower, that each last from about 0.1 s to a few
seconds; CPU time moves with wall time, so neither is a steady yardstick.
The gauge times a fixed pure-Python kernel (the same kind of work as the
program: Fraction arithmetic, tuples, dict lookups) between ops, at most
every ``CADENCE_S`` seconds.  A span [t0, t1] of length d is then scaled by
``KERNEL_NOMINAL_S`` over the mean kernel time measured within max(d,
``NEAR_S``) of it, so a short op takes the speed of the phase it ran in
and a long one the mean speed around it.  A reference second is the time a
span would take on a machine where the kernel takes ``KERNEL_NOMINAL_S``,
its time in the fast phase of a 2-core x86-64 virtual machine running
Python 3.11.  The program cannot change the kernel's speed, so a change to
the program moves reference seconds as it moves seconds.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

KERNEL_NOMINAL_S = 0.0007
CADENCE_S = 0.02
NEAR_S = 0.03


def kernel():
    memo = {}
    total = Fraction(0)
    for i in range(1, 100):
        x = (i % 7, i % 11, -i % 5)
        memo[x] = memo.get(x, Fraction(0)) + Fraction(i % 13 - 6, i % 5 + 1)
        total += memo[x] * Fraction(3, 4)
    return total


def kernel_time(reps):
    """Median time of ``reps`` runs of the kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Gauge:
    def __init__(self):
        self.times = []  # midpoints of the kernel runs
        self.costs = []  # their durations
        self.last = float("-inf")
        kernel()  # the first run is slower: warm it up unrecorded

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)
        self.last = t1

    def tick(self):
        """Sample if the last sample is older than the cadence."""
        if time.perf_counter() - self.last >= CADENCE_S:
            self.sample()

    def factor(self, t0, t1):
        """Reference seconds per measured second for the span [t0, t1]."""
        near = max(t1 - t0, NEAR_S)
        lo = bisect.bisect_left(self.times, t0 - near)
        hi = bisect.bisect_right(self.times, t1 + near)
        # at least the last sample before the span and the first after it
        lo = max(0, min(lo, bisect.bisect_left(self.times, t0) - 1))
        hi = max(hi, min(len(self.times), bisect.bisect_right(self.times, t1) + 1))
        return KERNEL_NOMINAL_S / statistics.fmean(self.costs[lo:hi])
