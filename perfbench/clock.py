"""Host-speed calibration for the benchmark's timings.

On a shared machine the speed of the same Python code drifts by a
fifth or more over minutes, while neighbours come and go. A fixed
kernel timed on a steady schedule follows that drift. Measured on a
2-core Xeon VM: over five 15 s runs of the same bridge round, the round
time spread by 17% (quartile distance over median), and the round time
over the mean kernel time by 3%.

The speed also switches within a run, between states that last from a
fraction of a second to a few seconds, so one factor per run is not
enough: the median of a tight cluster of verdict times then depends on
how the cluster's members fell across the states.

So while a run measures, a timer interrupts it every PERIOD_S and times
the kernel. The clock's own reading leaves the kernel's time out, so
every operation is timed as if the kernel never ran. Each time is then
scaled to a reference host that runs the kernel in NOMINAL_S seconds,
using the kernel samples within WINDOW_S of the operation: work done
at speed v(t) for T seconds takes T * mean(v) / v_ref there, and with
samples even in time mean(v) / v_ref is NOMINAL_S * mean(1 / kernel_s).
The kernel shares no code with gseqa, so a change to gseqa moves the
scaled times exactly as much as the raw ones. Raw and scaled values,
and every kernel sample, go into the result record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Kernel seconds on the reference host: a typical reading on the 2-core
# Xeon VM the benchmark was first tuned on.
NOMINAL_S = 0.003
PERIOD_S = 0.1
WINDOW_S = 0.5


def _kernel() -> int:
    """Dictionary, tuple, set and small-array work, like one gseqa step."""
    acc = 0
    table: dict = {}
    arr = np.arange(16)
    for i in range(1600):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += len(frozenset(key)) + int(np.count_nonzero(arr < (i & 15)))
    return acc


class Clock:
    """A timer that samples host speed and leaves its own samples out.

    Use it as a context manager around everything that is timed; it owns
    SIGALRM while open.
    """

    def __init__(self) -> None:
        self.kernel_at: list[float] = []  # now() when each sample began
        self.kernel_s: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        self.kernel_at.append(start - self.spent)
        self.kernel_s.append(perf_counter() - start)
        self.spent += perf_counter() - start

    def now(self) -> float:
        """perf_counter() minus the time spent in kernel samples."""
        while True:
            spent = self.spent
            t = perf_counter()
            if spent == self.spent:
                return t - spent

    def __enter__(self) -> "Clock":
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiplier from this host's seconds to reference-host seconds,
        over the whole run or around the interval [start, end] of now()."""
        if start is None:
            return NOMINAL_S * statistics.fmean(1 / k for k in self.kernel_s)
        window = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.kernel_at, start - window)
            hi = bisect.bisect_right(self.kernel_at, end + window)
            if hi > lo:
                return NOMINAL_S * statistics.fmean(1 / k for k in self.kernel_s[lo:hi])
            window *= 2

    def scaled(self, interval: tuple[float, float]) -> float:
        """Reference-host seconds for an interval of now()."""
        start, end = interval
        return (end - start) * self.factor(start, end)
