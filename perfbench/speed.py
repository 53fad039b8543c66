"""Timing that discounts the machine's changing speed.

On the shared 2-core machine this benchmark was built on, the same code runs
up to 2x faster or slower from one stretch of seconds to the next.  A fixed
loop ran steadily at ~1,400 iterations/s for half a minute, then at 1,600 to
3,000 for minutes.  The medians of 8-sample windows of wall-clock timings
spread by 29% (IQR / median).  So every timed interval is bracketed by two
short runs of a fixed reference loop that does not touch the package; one
run closes an interval and opens the next.  The loop works at the workload's
hidden size: a Python-overhead-bound loop tracked the paper-shape workload
badly.  The interval is then reported in
reference seconds: its wall seconds scaled by the reference speed around it
over ``REFERENCE_SPEED``.  In the same test, this brought the spread of the
window medians down to 4%.

A package change cannot move the reference, so its gains and losses pass
through unchanged.  Work the package leaves running between calls (a thread,
a child process) would slow the reference too, and would be hidden.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time

import numpy as np

# reference(hidden) iterations per second, by hidden size, typical of the
# machine the bounds were set on (2-core Xeon VM, Python 3.11, numpy 2.4, one
# BLAS thread); they only scale the reported values to that machine's seconds.
REFERENCE_SPEED = {48: 120_000.0, 256: 5_000.0}
REFERENCE_SECONDS = 0.15


@functools.lru_cache(maxsize=None)
def _weights(hidden):
    rng = np.random.default_rng(0)
    return (rng.standard_normal((hidden, 4 * hidden)) / 8.0,
            rng.standard_normal((hidden, 4 * hidden)) / 8.0,
            np.zeros(4 * hidden))


def reference(hidden: int, seconds: float = REFERENCE_SECONDS) -> float:
    """Iterations per second of an LSTM-like step at ``hidden`` units: two
    matvecs and a tanh in a Python loop, like the package's recurrent loops.
    At 48 units the loop is bound by Python overhead, at 256 by arithmetic,
    so it slows down the way a workload of that size does."""
    W, U, b = _weights(hidden)
    start = time.perf_counter()
    x = np.full(hidden, 0.1)
    n = 0
    while True:
        for _ in range(50):
            z = x @ W + x @ U + b
            x = np.tanh(z[:hidden])
        n += 50
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return n / elapsed


@dataclasses.dataclass(frozen=True)
class Mark:
    t: float      # clock time, excluded time left out
    speed: float  # reference speed at this mark over its typical speed


class Clock:
    """Wall time without the reference runs and the benchmark's own checks,
    plus the machine speed at each mark, measured at ``hidden`` units."""

    def __init__(self, hidden: int):
        self.hidden = hidden
        self._excluded_s = 0.0
        self.speeds: list[float] = []

    @contextlib.contextmanager
    def excluded(self):
        """Time spent inside does not count towards any interval."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded_s += time.perf_counter() - start

    def mark(self) -> Mark:
        t = time.perf_counter() - self._excluded_s
        with self.excluded():
            speed = reference(self.hidden) / REFERENCE_SPEED[self.hidden]
        self.speeds.append(speed)
        return Mark(t, speed)


def interval(a: Mark, b: Mark) -> tuple[float, float]:
    """(wall seconds, reference seconds) from mark ``a`` to mark ``b``."""
    wall = b.t - a.t
    return wall, wall * (a.speed + b.speed) / 2.0
