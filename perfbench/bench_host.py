"""Host-speed correction for timings taken on a shared machine.

On a small shared host the speed our one core gets can drift by a factor
of two within tens of seconds, which no amount of repetition inside a run
averages away.  While a `HostSampler` is active it times a fixed reference
kernel, which shares no code with ainfbg, about every SAMPLE_EVERY_S:
between operations when they are short, and from a timer signal inside
an operation that has run longer than that.  Its clock `now()` leaves out
the time those samples take, and `scale(start, end)` turns a span of that
clock into seconds on the host at its nominal speed: REF_NOMINAL_S over
the kernel's mean time around the span.  A change to ainfbg moves
operation times and not the kernel, so it moves corrected times as it
moves raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the kernel's duration on an uncontended 2.0 GHz Xeon core (Python 3.11,
# numpy 2.4); it only scales corrected times, never their ratios
REF_NOMINAL_S = 0.005
SAMPLE_EVERY_S = 0.1
# a span with fewer samples inside it is scaled by this many nearest ones
NEAREST = 5
# share of the slowest and of the fastest samples the mean leaves out
TRIM = 0.2


def reference_kernel() -> int:
    """Dict and tuple traffic plus small int64 matrix products mod 7, the
    two kinds of work the pipelines do, on a few kilobytes of data so that
    a sample evicts little of the cache an operation was using."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(16000):
        table[(i & 255, 1)] = i
        acc += table.get((i & 127, 1), 0)
    a = np.arange(1024, dtype=np.int64).reshape(32, 32)
    for _ in range(30):
        a = (a @ a + 1) % 7
    return acc + int(a[0, 0])


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.mean(values[cut:len(values) - cut])


class HostSampler:
    """Samples the reference kernel on a timer while used as a context.

    Operations are bracketed by `begin()` and `end()`.  A sample falls due
    every SAMPLE_EVERY_S; it runs at the next operation boundary, or in
    the timer handler once the operation in progress has run that long.
    The timer is re-armed only after a sample ends, so samples never queue
    up behind each other on a slow host.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (now(), seconds)
        self.stolen = 0.0
        self._due = False
        self._op_since: float | None = None
        self._active = False
        self._previous = None

    def now(self) -> float:
        """perf_counter() minus the time spent in samples so far."""
        while True:
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:
                return t - stolen

    def sample(self) -> None:
        at = self.now()
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.stolen += took
        self.samples.append((at, took))

    def _tick(self, signum, frame) -> None:
        if (self._op_since is not None
                and time.perf_counter() - self._op_since >= SAMPLE_EVERY_S):
            self.sample()
        else:
            self._due = True
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def _boundary(self) -> None:
        if self._due:
            self._due = False
            self.sample()

    def begin(self) -> float:
        """Start of an operation, on the `now()` clock."""
        self._boundary()
        self._op_since = time.perf_counter()
        return self.now()

    def end(self) -> float:
        """End of the operation begun last, on the `now()` clock."""
        at = self.now()
        self._op_since = None
        self._boundary()
        return at

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        # a tick that is already pending must not re-arm the timer once
        # the default SIGALRM action, which ends the process, is back
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds of `now()` in [start, end] to nominal ones."""
        inside = [took for at, took in self.samples if start <= at <= end]
        if len(inside) < NEAREST:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [took for _, took in nearest[:NEAREST]]
        return REF_NOMINAL_S / trimmed_mean(inside)
