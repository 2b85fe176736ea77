"""Item timing in reference seconds, corrected for the host's speed.

The hosts this benchmark runs on share their cores: the same pass over the
same inputs was measured at anywhere from 2.05 s to 3.89 s, in stretches that
last from a second to minutes, and CPU time moved with wall time.  Raw wall
times of whole 30-second runs spread by a quarter or more across runs, which
hides any change smaller than that.

So while items run, a timer signal every SAMPLE_S seconds runs a fixed
calibration kernel, an exact-rational elimination in this file (never the
program's code, so a change to `mg` cannot move it), and records how long it
took.  An item's reference time is its wall time, less the time spent in the
kernel, scaled by REF_KERNEL_S over the mean kernel time sampled during the
item: the time the item would have taken on a host that runs the kernel in
REF_KERNEL_S seconds.  Sampling inside each item, rather than around it, cut
the run-to-run variation of one repeated item from 8.5% to 5.4% on one host
(coefficient of variation; 9.5% for raw wall time).
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

SAMPLE_S = 0.02
# Kernel time on the host the recorded baselines come from.  Any fixed value
# works; it only sets the scale of the reference seconds.
REF_KERNEL_S = 0.0005

_N = 5
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 + (6 if i == j else 0), (i + 2 * j) % 5 + 1)
            for j in range(_N)] for i in range(_N)]


def kernel_seconds() -> float:
    t0 = perf_counter()
    rows = [row + [Fraction(i + 1)] for i, row in enumerate(_MATRIX)]
    for c in range(_N):
        pivot = rows[c]
        for r in range(c + 1, _N):
            f = rows[r][c] / pivot[c]
            rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
    return perf_counter() - t0


class Clock:
    """Context manager that samples the kernel while it is open and times
    calls in reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.on_sample = None  # called with each sample's duration
        self._previous = None

    def _sample(self, signum, frame):
        d = kernel_seconds()
        self.samples.append(d)
        if self.on_sample:
            self.on_sample(d)

    def __enter__(self) -> "Clock":
        kernel_seconds()  # the first call runs on cold caches
        self.samples.append(kernel_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """(result, wall seconds, reference seconds) of fn(*args), both
        without the kernel samples taken during the call."""
        k0 = len(self.samples)
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        inside = self.samples[k0:]
        wall -= sum(inside)
        # a call shorter than the sampling period uses the latest sample
        kernel = sum(inside) / len(inside) if inside else self.samples[-1]
        return result, wall, wall * REF_KERNEL_S / kernel
