"""The host's momentary speed, sampled while a pass runs, and times scaled by it.

The benchmark runs on a shared host whose speed drifts by 1.3-1.9x over
seconds to minutes, and each of its CPUs drifts on its own.  No number of
repeats inside one run averages that away, so every pass also measures the
host, in its own process and on its own CPU.  A timer signal interrupts the
pass every INTERVAL_S seconds and times a fixed burst of pure-Python integer
work that shares no code with ringsieve.  The burst time, next to the
library's times, says how fast the host was when they were taken.

Clock.now() is a perf_counter clock that stops while a burst runs, so the
bursts add nothing to the times a pass reports.  Timeline.scaled() turns a
raw duration into seconds at the reference speed: the raw duration times
REFERENCE_BURST_S over the mean burst time sampled in and around it.  A host
on which one burst takes REFERENCE_BURST_S reads the raw seconds unchanged.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time

INTERVAL_S = 0.02
BURST_LOOP = 1500
# a little above the burst's fastest time on a 2-CPU Xeon VM, 81-85 us
REFERENCE_BURST_S = 1e-4
# samples this far either side of a duration also count towards its speed, so
# that a request shorter than INTERVAL_S is scaled by about ten samples
WINDOW_S = 0.1


def _burst() -> float:
    t = time.perf_counter()
    x = 0
    for i in range(BURST_LOOP):
        x += i * i % 7
    return time.perf_counter() - t


class Clock:
    """perf_counter minus the time spent in bursts, plus the burst samples."""

    def __init__(self):
        self.paused_s = 0.0
        self._sampling = False
        self.samples: list[list[float]] = []  # [now() at the sample, burst seconds]

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    def sample(self, *_signal) -> None:
        if self._sampling:  # a signal that lands inside a burst is dropped
            return
        self._sampling = True
        t = time.perf_counter()
        b = min(_burst(), _burst())  # the faster of two, so one preemption does not count
        self.paused_s += time.perf_counter() - t
        self.samples.append([self.now(), b])
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()


class Timeline:
    """The burst samples of one pass, for scaling its durations."""

    def __init__(self, samples):
        self.times = [t for t, _ in samples]
        self.sums = list(itertools.accumulate((b for _, b in samples), initial=0.0))

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_BURST_S over the mean burst sampled in [t0 - WINDOW_S, t1 + WINDOW_S]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi == lo:  # no sample near: take the nearest one
            lo = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            hi = lo + 1
        return REFERENCE_BURST_S * (hi - lo) / (self.sums[hi] - self.sums[lo])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed for the interval [t0, t1] of Clock.now()."""
        return (t1 - t0) * self.factor(t0, t1)
