"""Machine-speed calibration interleaved with the workload.

The machines this benchmark runs on are shared, and their speed for
single-threaded Python drifts by up to half within seconds: the same fixed
loop takes 1.8 ms in one ten-second window and 3.0 ms in the next.  Raw wall
times from runs a minute apart therefore differ by more than any useful
regression bound.  A fixed calibration loop, which depends on nothing in the
program, slows down in step with the workload: the ratio of workload time to
calibration time stayed within a few percent while both moved by 60%.

`Calibrator` samples that loop (about 1.3 ms) while the workload runs:
from an interval timer every ``INTERVAL_S`` inside operations that have run
for ``LONG_OP_S``, and every ``BETWEEN_OPS_S`` at `between_ops`, which the
workload calls before each operation.  Short operations are never
interrupted; the one that follows a sample carries the sample's cache
footprint and `follows_sample` lets the latency statistics skip it.  Its
`clock` excludes the time spent in the loop, and `speed` gives, for an
interval of that clock, ``CAL_NOMINAL_S`` over the mean loop time of the
samples within ``WINDOW_S`` of it, or of the two samples around it.  The
machine flips between a fast and a slow state faster than a second, so the
samples must sit close to what they calibrate; the mean, not the median,
follows the share of time spent in each state.  A time multiplied by its
speed is the time on a machine where the loop takes ``CAL_NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

CAL_NOMINAL_S = 1.3e-3   # loop time that defines the nominal machine
INTERVAL_S = 0.1         # timer period: a sample inside long operations
LONG_OP_S = 0.05         # operations running this long are sampled inside
BETWEEN_OPS_S = 0.01     # sample period between short operations
WINDOW_S = 0.015         # samples this far around an interval count for it


def _pair(x: float, y: float) -> tuple:
    return x * y, x + y


def calibration_loop() -> float:
    """A fixed mix like the program's: calls, small containers, libm, numpy."""
    acc = 0.0
    vec = np.arange(1.0, 14.0)
    for i in range(1, 2001):
        x = i * 1e-4
        a, b = _pair(x, 1.5)
        d = {"a": a, "b": b}
        acc += math.exp(-d["a"]) * math.log1p(x) + math.erf(b) - math.sqrt(x)
        if i % 8 == 0:
            acc += float(np.asarray(vec, dtype=np.float64)[3] * x)
    return acc


class Calibrator:
    """Context manager sampling the calibration loop from SIGALRM."""

    def __init__(self) -> None:
        self.times: list[float] = []   # sample starts, on `clock`
        self.loops: list[float] = []   # loop durations, seconds
        self._excluded = 0.0
        self._sampling = False
        self._op_started = time.perf_counter()
        self._last_sample = -math.inf
        self._previous = None

    def clock(self) -> float:
        """`time.perf_counter` minus the time spent calibrating."""
        while True:
            excluded = self._excluded
            now = time.perf_counter()
            if self._excluded == excluded:  # no sample ran in between
                return now - excluded

    def _sample(self) -> None:
        if self._sampling:  # a late signal inside a sample: skip it
            return
        self._sampling = True
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.times.append(t0 - self._excluded)
        self.loops.append(t1 - t0)
        self._last_sample = time.perf_counter()
        self._excluded += self._last_sample - t0
        self._sampling = False

    def _on_alarm(self, *_signal_args) -> None:
        if time.perf_counter() - self._op_started >= LONG_OP_S:
            self._sample()

    def between_ops(self) -> None:
        """Hook before each operation: sample if due, note the start."""
        if time.perf_counter() - self._last_sample >= BETWEEN_OPS_S:
            self._sample()
        self._op_started = time.perf_counter()

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self, start: float, end: float) -> float:
        """Nominal over measured loop time for ``[start, end]`` of `clock`."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample that close: the two around the interval
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return CAL_NOMINAL_S / statistics.fmean(self.loops[lo:hi])

    def follows_sample(self, previous_end: float, start: float,
                       seconds: float) -> bool:
        """Whether a short operation started right after a sample.

        Such an operation runs with the sample's cache footprint; in a long
        one that cost is negligible.
        """
        i = bisect.bisect_left(self.times, previous_end)
        return (seconds < LONG_OP_S and i < len(self.times)
                and self.times[i] <= start)

    def loop_ms(self) -> float:
        return statistics.fmean(self.loops) * 1e3
