"""A fixed pure-Python reference kernel that tracks the host's speed.

On a shared 2-vCPU host the speed at which the same interpreter runs
the same code drifts by up to 2x over minutes, and a whole run can sit
in a slow phase.  Measured in seconds, the fastest repeat of a job then
spread 13-22% between runs of the same code, and 28-53% on the
big-integer-heavy workloads.  So the benchmark times this kernel around
the jobs (at most REF_EVERY_S apart in workloads.py) and before every
set-up, outside the timed regions, and reports the gated times in
reference seconds:

    reference seconds = measured seconds * NOMINAL_S / local kernel time

where the local kernel time is the fastest sample taken within
KERNEL_WINDOW_S (workloads.py) of the job.  The kernel touches no weylkit code, so
a change to the program cannot move it.  perfbench/README.md gives the
spreads measured both ways; the measured seconds are printed on the
line before the result.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.020    # the kernel on an unloaded 2-vCPU Xeon host
KERNEL_STEPS = 300_000


def kernel() -> int:
    total = 0
    for i in range(KERNEL_STEPS):
        total += i * i % 7
    return total


def sample() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def to_reference(seconds: float, kernel_s: float) -> float:
    """Measured seconds to reference seconds, given the local kernel time."""
    return seconds * NOMINAL_S / kernel_s
