"""Speed probe: how fast the core under an operation ran while it ran.

On a shared host the core a process runs on slows down and speeds up by
tens of percent, in phases lasting from seconds to many minutes, as other
tenants load its neighbours. The slowdown shows in CPU time as well as in
wall time, and the two cores of a small machine vary independently, so
neither a longer run nor a reference timed before or after the operation
cancels it.

While installed, a real-time interval timer raises SIGALRM every
``PERIOD_S`` seconds, and the handler times a fixed pure-Python loop of
``LOOPS`` additions on the main thread, which is the thread the operation
runs on at ``--jobs 1``. The handler runs at the next bytecode boundary, so
a long call into compiled code delays the sample until it returns. The
operation's wall time is divided by the mean loop time measured during it,
leaving out the slowest ``TRIM`` share of samples, which an interrupt or a
preemption lengthened. On a 2-core shared host, over 20-25 operations of
each of the two cold workloads, this cut the spread of the per-operation
figure (standard deviation over mean) from 5-13% for the wall time to 3.5%;
the median loop time gave 4-5%.

The ratio is the operation's cost in loop times: a change to the program
moves it, a change in the host's load mostly does not. Whatever slows the
core itself during the operation, including the program's own effect on it,
is divided out with the host's.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.02
LOOPS = 2000
TRIM = 0.2


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list = []

    def _time_loop(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.samples.append(self._time_loop())

    @contextmanager
    def installed(self):
        """Sample the loop time every PERIOD_S seconds while the context runs."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def cost(self, wall: float) -> float:
        """wall, less the time spent in the probe, in thousands of loop times.

        An operation shorter than one period has no sample of its own; the
        loop is then timed once, just after it.
        """
        kept = sorted(self.samples)[: len(self.samples) - int(TRIM * len(self.samples))]
        loop = statistics.mean(kept) if kept else self._time_loop()
        return (wall - sum(self.samples)) / loop / 1000.0
