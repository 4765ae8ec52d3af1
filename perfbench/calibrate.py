"""Host-speed calibration for the end-to-end timings.

The benchmark host is shared: its speed for the same work drifts by up to
1.6x over seconds to minutes as other tenants load it, so raw job times of
one commit spread by 10-40% between runs.  The timed loop therefore runs
this fixed pure-Python kernel (a longest-common-subsequence table, the same
kind of interpreter work as the library) for about 1 ms after every 20 ms
of jobs, and scales each job's wall time by ``REFERENCE_S / local kernel
wall time``.  The scaled figures are reported in
"reference milliseconds": the time the job would take on a host where the
kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

# Kernel time on a quiet 2.1 GHz x86-64 host under CPython 3.11.
REFERENCE_S = 0.00075
EVERY_S = 0.02
WINDOW = 8  # kernel samples on each side of a job that set its local speed

_X = [(i * 7) % 2 for i in range(40)]
_Y = [(i * 5 // 3) % 2 for i in range(40)]


def kernel() -> float:
    """Run the calibration kernel once and return its wall time."""
    start = time.perf_counter()
    for _ in range(5):
        prev = [0] * (len(_Y) + 1)
        for xi in _X:
            curr = [0]
            best = 0
            for j, yj in enumerate(_Y):
                cand = prev[j] + 1 if xi == yj else prev[j + 1]
                if cand > best:
                    best = cand
                curr.append(best)
            prev = curr
    return time.perf_counter() - start


def scale_factors(kernel_times: List[float], job_marks: List[int]) -> List[float]:
    """Per-job factor REFERENCE_S / (median kernel time around the job).

    ``job_marks[i]`` is the number of kernel samples taken before job i
    finished; the job's local speed is the median of the samples within
    ``WINDOW`` of that point.
    """
    factors = []
    for mark in job_marks:
        lo = max(0, min(mark, len(kernel_times)) - WINDOW)
        window = kernel_times[lo:mark + WINDOW]
        factors.append(REFERENCE_S / statistics.median(window))
    return factors
