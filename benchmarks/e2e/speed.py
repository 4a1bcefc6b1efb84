"""Host-speed probes: wall time rescaled to a reference CPU speed.

On a shared virtual machine the speed of a vCPU drifts: a fixed pure
Python loop takes 12 ms in one second and 45 ms a moment later, in
bursts of 0.1 s to a few seconds that differ between the two vCPUs.
A 3 s ``repro.detect`` then reads 3.0 s in one run and 4.1 s in the
next, and a 20 s run cannot average the bursts out.

:class:`SpeedProbe` samples the speed *while the work runs*: a
``SIGPROF`` timer fires every 2 ms of the process's CPU time and its
handler, which runs in the main thread and so on the CPU the work is
using, times a fixed micro-loop (about 17 µs, under 1% overhead).
:meth:`SpeedProbe.at_reference` rescales a wall interval by
``REFERENCE_PROBE_S / mean probe time`` over that interval, giving the
time the work would have taken at the reference speed. Interleaved
this way, the run-to-run spread of a Epinions-like scale-0.01 detect
fell from 9.6% to 3.7% (interquartile range over median, 60 reps).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: The micro-loop's time on an undisturbed vCPU of the reference host
#: (2-CPU VM, Python 3.11). It only sets the unit: ratios between runs
#: do not depend on it.
REFERENCE_PROBE_S = 17e-6
INTERVAL_S = 0.002
#: Fewest probe samples a rescaled interval is averaged over.
MIN_SAMPLES = 5


def _micro_loop() -> int:
    total = 0
    for i in range(300):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples this process's CPU speed every 2 ms of CPU time."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _micro_loop()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]``, widened to MIN_SAMPLES."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return statistics.fmean(self.durations[lo:hi])

    def at_reference(self, start: float, end: float) -> float:
        """``end - start`` seconds rescaled to the reference speed."""
        return (end - start) * REFERENCE_PROBE_S / self.speed(start, end)
