"""A work clock whose durations are scaled to a reference machine speed.

The sandboxes this benchmark runs in share their cores: the speed of one
core drifts by up to 2x within seconds, and a raw wall time moves with it.
So the clock runs a short calibration probe, pure-Python Fraction arithmetic
that never touches quiverfilt, on a wall-clock timer (SIGALRM, every
``period`` seconds).  Each probe's duration measures how fast the machine
ran at that moment.  A sample's scaled time is its work time multiplied by
the mean of ``REFERENCE_PROBE_S / probe`` over the probes within ``WINDOW_S``
of it: seconds on a machine that runs the probe in ``REFERENCE_PROBE_S``.
The window is short against the drift and long against the noise of a
single probe.  Probe time itself is excluded from every duration, raw or
scaled.

Everything stays in the one thread: the handler runs between bytecodes of
the main thread and touches only the clock's own objects.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

# Duration of one probe on the reference machine.  A constant, so scaled
# times from different commits and runs are in the same unit.
REFERENCE_PROBE_S = 0.0015
WINDOW_S = 0.5


def _calibration_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 97 + 1) * Fraction(i, 7)
    return total


@dataclass
class Sample:
    start: float  # perf_counter when the sample began
    end: float
    raw_s: float  # work time, probes excluded
    scaled_s: float = float("nan")  # raw_s at the reference speed; see Clock.scale


class Clock:
    """Work time with probe-based speed scaling; use as a context manager."""

    def __init__(self, period: float = 0.05):
        self.period = period
        self.probe_starts: list[float] = []
        self._speed_sums = [0.0]  # prefix sums of REFERENCE_PROBE_S / duration
        self.probe_total = 0.0
        self._previous_handler = None

    def __enter__(self) -> "Clock":
        self.probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self.probe()

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def probe(self) -> None:
        """Run one calibration probe and record how long it took."""
        was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not machine speed
        try:
            start = time.perf_counter()
            _calibration_work()
            duration = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        self.probe_starts.append(start)
        self._speed_sums.append(self._speed_sums[-1] + REFERENCE_PROBE_S / duration)
        self.probe_total += duration

    def work_time(self) -> float:
        """perf_counter minus all probe time so far (a consistent pair)."""
        while True:
            spent = self.probe_total
            now = time.perf_counter()
            if spent == self.probe_total:
                return now - spent

    def measure(self, fn, *args):
        """Call fn(*args); return (result, unscaled Sample)."""
        start, work = time.perf_counter(), self.work_time()
        result = fn(*args)
        raw = self.work_time() - work
        return result, Sample(start, time.perf_counter(), raw)

    def scale(self, samples) -> None:
        """Fill in scaled_s; call once the probes after the samples exist."""
        starts = self.probe_starts
        for s in samples:
            lo = bisect.bisect_left(starts, s.start - WINDOW_S)
            hi = bisect.bisect_right(starts, s.end + WINDOW_S)
            if hi == lo:  # no probe in the window: take the nearest one
                lo = max(0, min(lo, len(starts) - 1))
                hi = lo + 1
            s.scaled_s = s.raw_s * (self._speed_sums[hi] - self._speed_sums[lo]) / (hi - lo)
