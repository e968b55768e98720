"""Host pace: fixed reference kernels, timed between the benchmark's calls,
that turn host seconds into seconds at one fixed reference pace.

The benchmark runs on a few cores of a shared host whose speed drifts: for
stretches of seconds to minutes everything runs up to half again slower,
and the level moves from one run to the next with the neighbours' load.
Such a drift slows the kernels and the program alike, so a call's host time
multiplied by NOMINAL_S / (the kernels' time around that call) estimates the
call's time at the pace at which the kernels take NOMINAL_S, and most of the
drift cancels. The package spends its time in three kinds of work, and a
drift slows each by a different factor, so the pace is the geometric mean
of one kernel of each kind: an interpreted loop, a small in-cache numpy
product, and a fresh multi-megabyte array (allocation, page faults, memory
bandwidth). The kernels never touch the package, so a change to the package
cannot move them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.5e-3  # the kernels' geometric mean time at the reference pace
REPEATS = 3         # each kernel's time in a sample is its fastest of this many
MIN_GAP_S = 0.1     # unforced samples are at least this far apart
WINDOW_S = 3.0      # samples this close to a timed interval set its pace
MIN_SAMPLES = 5     # ... or, where the window holds fewer, the nearest ones

_M = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def interpreted() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


def in_cache() -> float:
    m = _M
    for _ in range(6):
        m = np.tanh(m @ _M)
    return float(m[0, 0])


def fresh_memory() -> float:
    return float(np.ones(1_000_000).sum())


KERNELS = (interpreted, in_cache, fresh_memory)


class Pace:
    def __init__(self):
        self.at: list[float] = []   # when each sample was taken, increasing
        self.ref: list[float] = []  # the sample: kernels' geometric mean
        self.spent = 0.0            # seconds spent sampling so far

    def sample(self, force: bool = False) -> None:
        """Time the kernels, unless the last sample is under MIN_GAP_S old."""
        now = time.perf_counter()
        if not force and self.at and now - self.at[-1] < MIN_GAP_S:
            return
        product = 1.0
        for kernel in KERNELS:
            best = float("inf")
            for _ in range(REPEATS):
                t = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t)
            product *= best
        self.at.append(now)
        self.ref.append(product ** (1.0 / len(KERNELS)))
        self.spent += time.perf_counter() - now

    def scale(self, start: float, end: float) -> float:
        """Factor from host seconds in [start, end] to reference seconds."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.at)):
            # widen towards the nearer neighbouring sample
            if hi == len(self.at) or (lo > 0 and start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.ref[lo:hi])

    def seconds(self, start: float, end: float, excluded: float = 0.0) -> float:
        """Reference seconds of [start, end], less `excluded` host seconds
        (time spent sampling inside it)."""
        return (end - start - excluded) * self.scale(start, end)
