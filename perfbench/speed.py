"""A speed probe that runs beside each operation on the same CPU.

The host behind a small VM changes the speed of its virtual CPUs by up to
1.7x, switching within a second and drifting for minutes.  A time taken on
such a CPU says as much about the neighbours as about the program.  So the
benchmark keeps the operation and a probe on one CPU.  While the operation
runs, the probe runs a fixed pure-Python kernel every INTERVAL_S, about a
tenth of the CPU, and measures it in its own CPU seconds.  Those samples
show how fast the CPU ran during the operation.

A time reported by the benchmark is the operation's own CPU seconds
(probe slices excluded) times REFERENCE_S / the mean probe time during it:
the seconds the operation would take on a CPU at which the kernel takes
REFERENCE_S, about the faster of the two speeds of a 2.0 GHz Xeon vCPU.
The kernel is stdlib arithmetic like the program's own (Fractions, dicts of
tuples) and never touches the program, so a change to the program moves
the reported times and leaves the probe where it was.
"""
from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003
INTERVAL_S = 0.03


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _kernel() -> int:
    out = {}
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i % 7 + 1, i % 11 + 2) + Fraction(1, i)
        x = Fraction(x.numerator % 100003, x.denominator % 100019 + 1)
        key = (i % 97, i % 13)
        out[key] = out.get(key, Fraction(0)) + x
    return len(out)


def sample() -> tuple:
    """(monotonic midpoint, CPU seconds) of one run of the kernel."""
    w0, c0 = time.monotonic(), time.thread_time()
    _kernel()
    c1, w1 = time.thread_time(), time.monotonic()
    return (w0 + w1) / 2, c1 - c0


def factor(samples: list, window=None) -> float:
    """REFERENCE_S over the mean probe time inside window (start, end);
    all samples when none falls inside it."""
    inside = [s for t, s in samples if window is None or window[0] <= t <= window[1]]
    return REFERENCE_S / statistics.fmean(inside or [s for _, s in samples])
